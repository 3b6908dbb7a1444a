//! Output sinks for registered experiments.
//!
//! Experiments never print directly: they write rows through a
//! [`Sink`], so the same experiment body can stream to stdout
//! (`bpfree exp run`), capture per-experiment files for golden diffing
//! (`bpfree exp all --out-dir`), or buffer into memory (the batch
//! runner and its tests). Whatever the sink, the bytes an
//! experiment writes are identical — the sink only decides where they
//! land.

use std::fs;
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::time::Instant;

use crate::json::Json;
use crate::registry::Experiment;

/// Where one experiment's output stream goes. The runner brackets every
/// experiment with [`Sink::begin`]/[`Sink::end`]; between the two, the
/// experiment writes its stdout bytes to [`Sink::out`].
pub trait Sink {
    /// Starts capture for `exp`; subsequent [`Sink::out`] writes belong
    /// to it.
    fn begin(&mut self, exp: &dyn Experiment) -> io::Result<()>;

    /// The current experiment's output stream.
    fn out(&mut self) -> &mut dyn Write;

    /// Finishes the current experiment (flush, close, bookkeeping).
    fn end(&mut self, exp: &dyn Experiment) -> io::Result<()>;

    /// Overrides the wall-clock the sink would otherwise measure for
    /// the current experiment. The planned batch runner calls this:
    /// experiments execute on pool workers long before their begin/end
    /// bracket, so bracketing would time the buffer copy, not the work.
    fn note_millis(&mut self, _millis: u64) {}
}

/// Streams every experiment straight to the process's stdout — what
/// `bpfree exp run` and `bpfree exp all` print without `--out-dir`.
#[derive(Default)]
pub struct StdoutSink {
    out: Option<io::BufWriter<io::Stdout>>,
}

impl StdoutSink {
    pub fn new() -> StdoutSink {
        StdoutSink::default()
    }
}

impl Sink for StdoutSink {
    fn begin(&mut self, _exp: &dyn Experiment) -> io::Result<()> {
        self.out = Some(io::BufWriter::new(io::stdout()));
        Ok(())
    }

    fn out(&mut self) -> &mut dyn Write {
        self.out.as_mut().expect("Sink::out outside begin/end")
    }

    fn end(&mut self, _exp: &dyn Experiment) -> io::Result<()> {
        if let Some(mut w) = self.out.take() {
            w.flush()?;
        }
        Ok(())
    }
}

/// Swallows every byte — for callers that want an experiment's *side
/// effects* (engine artifact computation, wall-clock) without its
/// report, e.g. `bpfree image build` filling the engine before it
/// snapshots it.
pub struct DiscardSink {
    sink: io::Sink,
}

impl DiscardSink {
    pub fn new() -> DiscardSink {
        DiscardSink { sink: io::sink() }
    }
}

impl Default for DiscardSink {
    fn default() -> DiscardSink {
        DiscardSink::new()
    }
}

impl Sink for DiscardSink {
    fn begin(&mut self, _exp: &dyn Experiment) -> io::Result<()> {
        Ok(())
    }

    fn out(&mut self) -> &mut dyn Write {
        &mut self.sink
    }

    fn end(&mut self, _exp: &dyn Experiment) -> io::Result<()> {
        Ok(())
    }
}

/// Captures each experiment into `<dir>/<name>.txt` (bytes identical to
/// the experiment's stdout) and records a `manifest.json` with paper
/// references and per-experiment wall-clock — the harness-facing sink
/// behind `bpfree exp all --out-dir`.
pub struct CaptureSink {
    dir: PathBuf,
    file: Option<io::BufWriter<fs::File>>,
    started: Option<Instant>,
    noted: Option<u64>,
    entries: Vec<Entry>,
}

struct Entry {
    name: &'static str,
    paper_ref: &'static str,
    file: String,
    millis: u64,
}

impl CaptureSink {
    /// Creates `dir` (and parents) and an empty sink writing into it.
    pub fn new(dir: impl Into<PathBuf>) -> io::Result<CaptureSink> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        Ok(CaptureSink {
            dir,
            file: None,
            started: None,
            noted: None,
            entries: Vec::new(),
        })
    }

    /// Writes `manifest.json` describing everything captured so far and
    /// returns its path. Call after the last experiment.
    pub fn finish(&mut self) -> io::Result<PathBuf> {
        let experiments: Vec<Json> = self
            .entries
            .iter()
            .map(|e| {
                Json::obj()
                    .field("name", e.name)
                    .field("paper_ref", e.paper_ref)
                    .field("file", e.file.as_str())
                    .field("millis", e.millis)
                    .build()
            })
            .collect();
        let manifest = Json::obj()
            .field(
                "paper",
                "Ball & Larus, Branch Prediction for Free, PLDI 1993",
            )
            .field("experiments", experiments)
            .build();
        let path = self.dir.join("manifest.json");
        fs::write(&path, format!("{}\n", manifest.pretty()))?;
        Ok(path)
    }
}

impl Sink for CaptureSink {
    fn begin(&mut self, exp: &dyn Experiment) -> io::Result<()> {
        let file = fs::File::create(self.dir.join(format!("{}.txt", exp.name())))?;
        self.file = Some(io::BufWriter::new(file));
        self.started = Some(Instant::now());
        Ok(())
    }

    fn out(&mut self) -> &mut dyn Write {
        self.file.as_mut().expect("Sink::out outside begin/end")
    }

    fn note_millis(&mut self, millis: u64) {
        self.noted = Some(millis);
    }

    fn end(&mut self, exp: &dyn Experiment) -> io::Result<()> {
        if let Some(mut w) = self.file.take() {
            w.flush()?;
        }
        let bracket = self.started.take().map(|t| t.elapsed().as_millis() as u64);
        let millis = self.noted.take().or(bracket).unwrap_or(0);
        self.entries.push(Entry {
            name: exp.name(),
            paper_ref: exp.paper_ref(),
            file: format!("{}.txt", exp.name()),
            millis,
        });
        Ok(())
    }
}

/// Buffers each experiment's bytes in memory — how the batch runner
/// holds a report until its turn, and what the tests diff.
#[derive(Default)]
pub struct VecSink {
    buf: Vec<u8>,
}

impl VecSink {
    pub fn new() -> VecSink {
        VecSink::default()
    }

    /// The bytes written since construction (or the last `take`).
    pub fn take(&mut self) -> Vec<u8> {
        std::mem::take(&mut self.buf)
    }
}

impl Sink for VecSink {
    fn begin(&mut self, _exp: &dyn Experiment) -> io::Result<()> {
        Ok(())
    }

    fn out(&mut self) -> &mut dyn Write {
        &mut self.buf
    }

    fn end(&mut self, _exp: &dyn Experiment) -> io::Result<()> {
        Ok(())
    }
}

/// The capture file [`CaptureSink`] writes for experiment `name`.
pub fn capture_path(dir: &Path, name: &str) -> PathBuf {
    dir.join(format!("{name}.txt"))
}
