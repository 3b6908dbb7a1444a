//! Regenerates **Table 1**: the benchmark roster with language group and
//! code size (static IR instructions stand in for object-code bytes),
//! sorted within groups by size like the paper.

use std::io::{self, Write};

use bpfree_engine::Engine;
use bpfree_suite::Lang;

use crate::registry::Experiment;

pub struct Table1;

impl Experiment for Table1 {
    fn name(&self) -> &'static str {
        "table1"
    }

    fn description(&self) -> &'static str {
        "benchmark roster with language group and code size"
    }

    fn paper_ref(&self) -> &'static str {
        "Table 1"
    }

    fn run(&self, engine: &Engine, w: &mut dyn Write) -> io::Result<()> {
        let mut rows: Vec<(String, String, Lang, bool, u64, usize)> = crate::load_suite_on(engine)
            .into_iter()
            .map(|d| {
                (
                    d.bench.name.to_string(),
                    d.bench.description.to_string(),
                    d.bench.lang,
                    d.bench.spec,
                    d.program.static_size(),
                    d.program.funcs().len(),
                )
            })
            .collect();
        rows.sort_by(|a, b| {
            (a.2 == Lang::Fortran)
                .cmp(&(b.2 == Lang::Fortran))
                .then(b.4.cmp(&a.4))
        });

        writeln!(
            w,
            "{:<11} {:<42} {:>4} {:>5} {:>7} {:>6}",
            "Program", "Description", "Lng", "SPEC", "Instrs", "Funcs"
        )?;
        writeln!(w, "{:-<80}", "")?;
        let mut last_lang = None;
        for (name, desc, lang, spec, size, funcs) in rows {
            if last_lang.is_some() && last_lang != Some(lang) {
                writeln!(w, "{:-<80}", "")?;
            }
            last_lang = Some(lang);
            writeln!(
                w,
                "{:<11} {:<42} {:>4} {:>5} {:>7} {:>6}",
                name,
                desc,
                lang.to_string(),
                if spec { "*" } else { "" },
                size,
                funcs
            )?;
        }
        writeln!(w)?;
        writeln!(
            w,
            "Paper (Table 1): 23 benchmarks, SPEC89 marked *, C group then Fortran group,"
        )?;
        writeln!(
            w,
            "sorted by object code size. Sizes here are static IR instruction counts."
        )?;
        Ok(())
    }
}
