//! Network latency, loss, and partition model.
//!
//! The paper's experiments run on physical clusters; here the wire is
//! simulated. Delivery latency is `base + U(0, jitter)` per message, with an
//! optional drop probability and explicit partitions for failure injection.
//! All randomness comes from the simulator's seeded RNG so runs are
//! deterministic.

use rand::Rng;

use crate::{IdSet, NodeId, SimDuration};

/// Static configuration of the network model.
#[derive(Debug, Clone)]
pub struct NetConfig {
    /// Fixed one-way latency applied to every remote message.
    pub base_latency: SimDuration,
    /// Upper bound of the uniform jitter added on top of `base_latency`.
    pub jitter: SimDuration,
    /// Latency for a node messaging itself (loopback).
    pub local_latency: SimDuration,
    /// Probability in `[0, 1]` that a remote message is silently dropped.
    pub drop_probability: f64,
}

impl Default for NetConfig {
    fn default() -> Self {
        // Numbers chosen to resemble a same-rack 10 GbE cluster, the setup
        // used in the paper's evaluation.
        NetConfig {
            base_latency: SimDuration::from_micros(150),
            jitter: SimDuration::from_micros(50),
            local_latency: SimDuration::from_micros(5),
            drop_probability: 0.0,
        }
    }
}

impl NetConfig {
    /// A zero-latency, lossless network, useful in unit tests where wire
    /// delay is irrelevant.
    pub fn instant() -> NetConfig {
        NetConfig {
            base_latency: SimDuration::ZERO,
            jitter: SimDuration::ZERO,
            local_latency: SimDuration::ZERO,
            drop_probability: 0.0,
        }
    }
}

/// The verdict the network renders for one message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Delivery {
    /// Deliver after the given one-way latency.
    After(SimDuration),
    /// Silently drop the message (loss or partition).
    Drop,
}

/// Mutable network state: configuration plus active partitions.
#[derive(Debug, Clone)]
pub struct Network {
    config: NetConfig,
    /// Unordered pairs of nodes that cannot currently exchange messages.
    /// Only ever probed, never iterated.
    severed: IdSet<(NodeId, NodeId)>,
    /// Nodes whose links are all severed (crashed-network style isolation).
    isolated: IdSet<NodeId>,
}

impl Network {
    /// Creates a network with the given configuration and no partitions.
    pub fn new(config: NetConfig) -> Network {
        Network {
            config,
            severed: IdSet::default(),
            isolated: IdSet::default(),
        }
    }

    /// Returns the active configuration.
    pub fn config(&self) -> &NetConfig {
        &self.config
    }

    /// Replaces the configuration (takes effect for subsequent messages).
    pub fn set_config(&mut self, config: NetConfig) {
        self.config = config;
    }

    /// Severs the link between `a` and `b` in both directions.
    pub fn sever(&mut self, a: NodeId, b: NodeId) {
        self.severed.insert(Self::key(a, b));
    }

    /// Restores the link between `a` and `b`.
    pub fn heal(&mut self, a: NodeId, b: NodeId) {
        self.severed.remove(&Self::key(a, b));
    }

    /// Cuts every link touching `node`.
    pub fn isolate(&mut self, node: NodeId) {
        self.isolated.insert(node);
    }

    /// Restores every link touching `node` (pairwise severs still apply).
    pub fn rejoin(&mut self, node: NodeId) {
        self.isolated.remove(&node);
    }

    /// Removes all partitions and isolations.
    pub fn heal_all(&mut self) {
        self.severed.clear();
        self.isolated.clear();
    }

    /// Returns whether `a` and `b` can currently exchange messages.
    pub fn connected(&self, a: NodeId, b: NodeId) -> bool {
        // Most runs cut nothing: no hashing until something is.
        if a == b || (self.isolated.is_empty() && self.severed.is_empty()) {
            return true;
        }
        !self.isolated.contains(&a)
            && !self.isolated.contains(&b)
            && !self.severed.contains(&Self::key(a, b))
    }

    /// Decides the fate of a message from `from` to `to`.
    pub fn route<R: Rng + ?Sized>(&self, from: NodeId, to: NodeId, rng: &mut R) -> Delivery {
        if from == to {
            return Delivery::After(self.config.local_latency);
        }
        if !self.connected(from, to) {
            return Delivery::Drop;
        }
        if self.config.drop_probability > 0.0 && rng.gen::<f64>() < self.config.drop_probability {
            return Delivery::Drop;
        }
        let jitter = if self.config.jitter.as_micros() == 0 {
            0
        } else {
            rng.gen_range(0..=self.config.jitter.as_micros())
        };
        Delivery::After(self.config.base_latency + SimDuration::from_micros(jitter))
    }

    fn key(a: NodeId, b: NodeId) -> (NodeId, NodeId) {
        if a <= b {
            (a, b)
        } else {
            (b, a)
        }
    }
}

impl Default for Network {
    fn default() -> Self {
        Network::new(NetConfig::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(1)
    }

    #[test]
    fn loopback_uses_local_latency() {
        let net = Network::default();
        let d = net.route(NodeId(3), NodeId(3), &mut rng());
        assert_eq!(d, Delivery::After(net.config().local_latency));
    }

    #[test]
    fn remote_latency_within_bounds() {
        let net = Network::default();
        let mut r = rng();
        for _ in 0..100 {
            match net.route(NodeId(0), NodeId(1), &mut r) {
                Delivery::After(d) => {
                    assert!(d >= net.config().base_latency);
                    assert!(d <= net.config().base_latency + net.config().jitter);
                }
                Delivery::Drop => panic!("lossless network dropped a message"),
            }
        }
    }

    #[test]
    fn sever_and_heal() {
        let mut net = Network::new(NetConfig::instant());
        net.sever(NodeId(1), NodeId(0));
        assert_eq!(net.route(NodeId(0), NodeId(1), &mut rng()), Delivery::Drop);
        assert_eq!(net.route(NodeId(1), NodeId(0), &mut rng()), Delivery::Drop);
        assert!(matches!(
            net.route(NodeId(0), NodeId(2), &mut rng()),
            Delivery::After(_)
        ));
        net.heal(NodeId(0), NodeId(1));
        assert!(matches!(
            net.route(NodeId(0), NodeId(1), &mut rng()),
            Delivery::After(_)
        ));
    }

    #[test]
    fn isolate_cuts_all_links() {
        let mut net = Network::new(NetConfig::instant());
        net.isolate(NodeId(5));
        assert_eq!(net.route(NodeId(5), NodeId(1), &mut rng()), Delivery::Drop);
        assert_eq!(net.route(NodeId(2), NodeId(5), &mut rng()), Delivery::Drop);
        // Loopback survives isolation: the daemon can still talk to itself.
        assert!(matches!(
            net.route(NodeId(5), NodeId(5), &mut rng()),
            Delivery::After(_)
        ));
        net.rejoin(NodeId(5));
        assert!(matches!(
            net.route(NodeId(5), NodeId(1), &mut rng()),
            Delivery::After(_)
        ));
    }

    #[test]
    fn drop_probability_drops_some() {
        let mut cfg = NetConfig::instant();
        cfg.drop_probability = 0.5;
        let net = Network::new(cfg);
        let mut r = rng();
        let drops = (0..1000)
            .filter(|_| net.route(NodeId(0), NodeId(1), &mut r) == Delivery::Drop)
            .count();
        assert!(drops > 300 && drops < 700, "drops = {drops}");
    }

    #[test]
    fn heal_all_clears_everything() {
        let mut net = Network::new(NetConfig::instant());
        net.sever(NodeId(0), NodeId(1));
        net.isolate(NodeId(2));
        net.heal_all();
        assert!(net.connected(NodeId(0), NodeId(1)));
        assert!(net.connected(NodeId(2), NodeId(3)));
    }
}
