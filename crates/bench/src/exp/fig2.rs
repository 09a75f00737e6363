//! Figure 2: growth of co-designed object-storage interfaces in Ceph.
//!
//! The paper mines the Ceph git history; offline we regenerate the series
//! from the reconstructed class catalog in
//! [`mala_rados::class_registry`] (documented substitution in
//! `DESIGN.md`). The shape to reproduce: accelerating growth since 2010
//! in both classes and methods, reaching ~20 classes / 95 methods by 2016.

use mala_rados::class_registry::growth_series;

use crate::{ensure, report, Experiment, Scale};

/// Figure 2 has no parameters: the catalog is the input at both scales.
pub struct Config;

/// `(year, cumulative classes, cumulative methods)`, 2010 through 2016.
pub type Data = Vec<(u16, u32, u32)>;

impl Experiment for Config {
    type Data = Data;

    fn at(_: Scale) -> Self {
        Config
    }

    fn run(&self) -> Data {
        growth_series()
    }

    /// The figure as a table plus a sparkline-style bar per year.
    fn render(&self, series: &Data) -> String {
        let mut out = String::from("Figure 2: growth of co-designed object storage interfaces\n\n");
        let rows: Vec<Vec<String>> = series
            .iter()
            .map(|(year, classes, methods)| {
                vec![
                    year.to_string(),
                    classes.to_string(),
                    methods.to_string(),
                    "#".repeat(*classes as usize),
                ]
            })
            .collect();
        out.push_str(&report::table(
            &["year", "classes", "methods", "classes (bar)"],
            &rows,
        ));
        let (y0, c0, m0) = series[0];
        let (y1, c1, m1) = series[series.len() - 1];
        out.push_str(&format!(
            "\n{y0}: {c0} classes / {m0} methods  →  {y1}: {c1} classes / {m1} methods\n"
        ));
        out
    }

    fn assert_shape(&self, series: &Data) -> Result<(), String> {
        let (first, (last, classes, methods)) = (series[0].0, series[series.len() - 1]);
        ensure!(first == 2010 && last == 2016, "years {first}..{last}");
        ensure!(methods == 95, "{methods} methods, Table 1 totals 95");
        ensure!(classes >= 15, "only {classes} classes by 2016");
        // Accelerating: second-half growth exceeds first-half growth.
        let c2013 = series.iter().find(|s| s.0 == 2013).ok_or("no 2013 row")?.1;
        ensure!(
            classes - c2013 > c2013 - 1,
            "growth does not accelerate: {c2013} of {classes} classes by 2013"
        );
        Ok(())
    }
}
