//! Tables 1 and 2: the object-class census by category and the internal
//! abstraction catalog. Both are static: a run renders the catalog, and
//! the two scales are the same.

use mala_rados::class_registry::{census_by_category, CATALOG};
use malacology::INTERFACE_CATALOG;

use crate::{ensure, report, Experiment, Scale};

/// Table 1 (object-class categories and method counts).
pub struct Table1;
/// Table 2 (the internal abstractions exposed as interfaces).
pub struct Table2;

impl Experiment for Table1 {
    type Data = String;

    fn at(_: Scale) -> Self {
        Table1
    }

    fn run(&self) -> String {
        let mut out = String::from("Table 1: object storage classes by category\n\n");
        let census = census_by_category();
        let rows: Vec<Vec<String>> = census
            .iter()
            .map(|(cat, methods)| {
                vec![
                    cat.name().to_string(),
                    cat.example().to_string(),
                    methods.to_string(),
                ]
            })
            .collect();
        out.push_str(&report::table(&["Category", "Example", "#"], &rows));
        let total: u32 = census.iter().map(|(_, m)| m).sum();
        out.push_str(&format!("\ntotal methods: {total}\n"));
        out.push_str(&format!("catalog classes: {}\n", CATALOG.len()));
        out
    }

    fn render(&self, table: &String) -> String {
        table.clone()
    }

    fn assert_shape(&self, table: &String) -> Result<(), String> {
        for cell in ["Logging", "11", "74", "total methods: 95"] {
            ensure!(table.contains(cell), "Table 1 lacks {cell:?}");
        }
        Ok(())
    }
}

impl Experiment for Table2 {
    type Data = String;

    fn at(_: Scale) -> Self {
        Table2
    }

    fn run(&self) -> String {
        let mut out = String::from("Table 2: common internal abstractions\n\n");
        let rows: Vec<Vec<String>> = INTERFACE_CATALOG
            .iter()
            .map(|i| {
                vec![
                    i.name.to_string(),
                    i.section.to_string(),
                    i.production_example.to_string(),
                    i.ceph_example.to_string(),
                    i.functionality.to_string(),
                ]
            })
            .collect();
        out.push_str(&report::table(
            &[
                "Interface",
                "Section",
                "Example in Production Systems",
                "Example in Ceph",
                "Provided Functionality",
            ],
            &rows,
        ));
        out
    }

    fn render(&self, table: &String) -> String {
        table.clone()
    }

    fn assert_shape(&self, table: &String) -> Result<(), String> {
        for name in [
            "Service Metadata",
            "Data I/O",
            "Shared Resource",
            "File Type",
            "Load Balancing",
            "Durability",
        ] {
            ensure!(table.contains(name), "Table 2 lacks {name}");
        }
        Ok(())
    }
}
