//! Speedscope JSON export for subsystem profiles.
//!
//! Emits the subset of the speedscope file format
//! (<https://www.speedscope.app/file-format-schema.json>) that the web
//! viewer accepts: a shared frame table plus one `sampled` profile per
//! run, where each sample is a single-frame stack (one subsystem) and
//! the weight is either the deterministic event count (`unit: "none"`)
//! or the wall-sampled nanoseconds (`unit: "nanoseconds"`). The file is
//! written by [`crate::json`], compact, one profile per line.

use crate::json::{self, Layout};
use crate::profile::{Profile, Subsystem};

/// Builder for one speedscope file: a shared frame table (the
/// subsystem labels) and any number of profiles.
#[derive(Debug, Default)]
pub struct SpeedscopeBuilder {
    /// Each profile rendered as a compact object.
    profiles: Vec<String>,
}

impl SpeedscopeBuilder {
    /// An empty file.
    pub fn new() -> SpeedscopeBuilder {
        SpeedscopeBuilder {
            profiles: Vec::new(),
        }
    }

    /// Number of profiles queued.
    pub fn len(&self) -> usize {
        self.profiles.len()
    }

    /// True when no profiles were queued.
    pub fn is_empty(&self) -> bool {
        self.profiles.is_empty()
    }

    /// Add one profile. When the profile carries wall time the weights
    /// are nanoseconds; otherwise the deterministic event counts.
    pub fn add(&mut self, name: &str, p: &Profile) {
        let wall = p.total_wall_ns() > 0;
        // (frame index, weight) of every subsystem that weighs anything.
        let samples: Vec<(usize, u64)> = Subsystem::all()
            .iter()
            .enumerate()
            .map(|(i, &s)| (i, if wall { p.wall_ns(s) } else { p.count(s) }))
            .filter(|&(_, w)| w > 0)
            .collect();
        let total = samples.iter().fold(0u64, |t, &(_, w)| t.saturating_add(w));
        self.profiles.push(json::object(Layout::Compact, |o| {
            o.field("type", "sampled");
            o.field("name", name);
            o.field("unit", if wall { "nanoseconds" } else { "none" });
            o.field("startValue", 0u64);
            o.field("endValue", total);
            o.array("samples", Layout::Compact, |a| {
                for &(i, _) in &samples {
                    a.array(Layout::Compact, |a| a.items([i]));
                }
            });
            o.array("weights", Layout::Compact, |a| {
                a.items(samples.iter().map(|&(_, w)| w));
            });
        }));
    }

    /// Render the complete speedscope file.
    pub fn finish(&self, name: &str) -> String {
        json::document(Layout::Compact, |o| {
            o.field(
                "$schema",
                "https://www.speedscope.app/file-format-schema.json",
            );
            o.field("name", name);
            o.field("exporter", "btr-obs");
            o.object("shared", Layout::Compact, |o| {
                o.array("frames", Layout::Compact, |a| {
                    for s in Subsystem::all() {
                        a.object(Layout::Compact, |o| o.field("name", s.label()));
                    }
                });
            });
            o.array("profiles", Layout::Compact, |a| {
                for p in &self.profiles {
                    a.newline();
                    a.raw(p);
                }
                a.newline();
                // An empty file keeps the blank line it has always had
                // between the brackets.
                if self.profiles.is_empty() {
                    a.newline();
                }
            });
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_file_is_valid() {
        let b = SpeedscopeBuilder::new();
        assert!(b.is_empty());
        assert_eq!(b.finish("empty"), EMPTY);
    }

    #[test]
    fn count_profile_renders_unit_none() {
        let mut p = Profile::new();
        p.bump_n(Subsystem::Routing, 100);
        p.bump_n(Subsystem::Dispatch, 50);
        let mut b = SpeedscopeBuilder::new();
        b.add("n=20 counts", &p);
        assert_eq!(b.len(), 1);
        assert_eq!(b.finish("te\"st"), COUNTS);
    }

    #[test]
    fn wall_profile_renders_nanoseconds() {
        let mut counts = Profile::new();
        counts.bump_n(Subsystem::Routing, 5);
        counts.bump_n(Subsystem::Queue, 9);
        let mut wall = counts.clone();
        wall.add_wall(Subsystem::Routing, 4_200);
        let mut b = SpeedscopeBuilder::new();
        b.add("n=20 counts", &counts);
        b.add("n=20 wall", &wall);
        assert_eq!(b.finish("test"), WALL);
    }

    // `finish()` of the files above, as the hand-laid writer of PR 24
    // produced them.
    const EMPTY: &str = r#"{"$schema":"https://www.speedscope.app/file-format-schema.json","name":"empty","exporter":"btr-obs","shared":{"frames":[{"name":"routing"},{"name":"crypto_sign"},{"name":"crypto_verify"},{"name":"queue"},{"name":"audit"},{"name":"mode_switch"},{"name":"dispatch"},{"name":"other"}]},"profiles":[

]}
"#;
    const COUNTS: &str = r#"{"$schema":"https://www.speedscope.app/file-format-schema.json","name":"te\"st","exporter":"btr-obs","shared":{"frames":[{"name":"routing"},{"name":"crypto_sign"},{"name":"crypto_verify"},{"name":"queue"},{"name":"audit"},{"name":"mode_switch"},{"name":"dispatch"},{"name":"other"}]},"profiles":[
{"type":"sampled","name":"n=20 counts","unit":"none","startValue":0,"endValue":150,"samples":[[0],[6]],"weights":[100,50]}
]}
"#;
    const WALL: &str = r#"{"$schema":"https://www.speedscope.app/file-format-schema.json","name":"test","exporter":"btr-obs","shared":{"frames":[{"name":"routing"},{"name":"crypto_sign"},{"name":"crypto_verify"},{"name":"queue"},{"name":"audit"},{"name":"mode_switch"},{"name":"dispatch"},{"name":"other"}]},"profiles":[
{"type":"sampled","name":"n=20 counts","unit":"none","startValue":0,"endValue":14,"samples":[[0],[3]],"weights":[5,9]},
{"type":"sampled","name":"n=20 wall","unit":"nanoseconds","startValue":0,"endValue":4200,"samples":[[0]],"weights":[4200]}
]}
"#;
}
