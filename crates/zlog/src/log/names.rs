//! The names a request carries, built once, and the class calls.

use super::*;

/// A method of the `zlog` class, as the client calls it: an index into the
/// handles [`Names`] built.
#[derive(Debug, Clone, Copy)]
pub(super) enum Method {
    WriteBatch,
    ReadBatch,
    Fill,
    TrimUpto,
    Checkpoint,
    CheckpointRead,
}

impl Method {
    /// Every method with its name in the class source, in discriminant
    /// order.
    const ALL: [(Method, &'static str); 6] = [
        (Method::WriteBatch, "write_batch"),
        (Method::ReadBatch, "read_batch"),
        (Method::Fill, "fill"),
        (Method::TrimUpto, "trim_upto"),
        (Method::Checkpoint, "checkpoint"),
        (Method::CheckpointRead, "checkpoint_read"),
    ];
}

/// Every name one client's requests carry, allocated when the client is
/// built: a request takes refcounts of these and formats nothing
/// (DESIGN §30).
pub(super) struct Names {
    /// The log's pool and name, as `SetSeqLayout` carries them.
    pub(super) pool: Rc<str>,
    pub(super) log: Rc<str>,
    /// The log's key in the monitor's [`ZLOG_MAP`], `epoch.<log>`.
    pub(super) epoch_key: String,
    /// The sequencer inode's path, `/zlog/<log>`.
    pub(super) seq_path: String,
    /// The stripe objects `<log>.<i>`, by stripe index.
    stripes: Vec<ObjectId>,
    /// The per-log checkpoint object (not a stripe: seals never touch it,
    /// so checkpoint traffic survives recovery untouched).
    pub(super) ckpt: ObjectId,
    class: Rc<str>,
    /// Method-name handles, indexed by [`Method`].
    methods: [Rc<str>; Method::ALL.len()],
}

impl Names {
    pub(super) fn new(config: &ZlogConfig) -> Names {
        let pool: Rc<str> = config.pool.as_str().into();
        let stripe = |i: u32| ObjectId::new(Rc::clone(&pool), format!("{}.{i}", config.name));
        Names {
            stripes: (0..config.stripe_width).map(stripe).collect(),
            ckpt: ObjectId::new(Rc::clone(&pool), format!("{}.ckpt", config.name)),
            log: config.name.as_str().into(),
            epoch_key: format!("epoch.{}", config.name),
            seq_path: format!("/zlog/{}", config.name),
            class: ZLOG_CLASS.into(),
            methods: Method::ALL.map(|(_, name)| name.into()),
            pool,
        }
    }

    /// The stripe width: how many stripe objects positions cycle over.
    pub(super) fn width(&self) -> u64 {
        self.stripes.len() as u64
    }
}

impl ZlogClient {
    /// The stripe object holding `pos`: a refcount of the id built with
    /// the client.
    pub(super) fn stripe_oid(&self, pos: u64) -> ObjectId {
        let stripe = pos % self.names.width();
        self.names.stripes[stripe as usize].clone()
    }

    /// The `Op::Call` of `method` on the `zlog` class: its names are
    /// refcounts of the client's handles.
    pub(super) fn class_call(&self, method: Method, input: Vec<u8>) -> Op {
        Op::Call {
            class: Rc::clone(&self.names.class),
            method: Rc::clone(&self.names.methods[method as usize]),
            input: input.into(),
        }
    }

    pub(super) fn call_class(
        &mut self,
        ctx: &mut Context<'_>,
        op: u64,
        oid: ObjectId,
        method: Method,
        input: Vec<u8>,
    ) {
        let call = self.class_call(method, input);
        let reqid = self.rados.submit_spanned(ctx, oid, vec![call], None, ());
        self.ops.hold(op, Route::Rados(reqid));
    }

    /// Calls a per-cell class method (`fill`, `trim_upto`) on the stripe
    /// object holding `pos`; each takes `epoch|pos`.
    pub(super) fn call_cell(&mut self, ctx: &mut Context<'_>, op: u64, method: Method, pos: u64) {
        let input = format!("{}|{pos}", self.epoch).into_bytes();
        let oid = self.stripe_oid(pos);
        self.call_class(ctx, op, oid, method, input);
    }
}
