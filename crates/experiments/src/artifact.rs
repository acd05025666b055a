//! The one shape of every committed `BENCH_<group>.json` benchmark artifact:
//!
//! ```json
//! {"group": "churn",
//!  "env": {"cpus": 2, "profile": "release", "rev": "ca75681-dirty"},
//!  "rows": [{"id": "perturb/200n/1", "params": {"nodes": 200}, "metrics": {"speedup": 50.1}}]}
//! ```
//!
//! `params` say what a row ran (sizes, solver, load fraction), `metrics`
//! what it measured. [`write()`] stamps the [`Env`] itself, so no artifact can
//! leave out the machine and build it was measured on; [`read()`] is the one
//! reader `tests/bench_artifacts.rs` parses every artifact with, including
//! the ones the criterion shim writes by hand.

use serde::{Deserialize, Serialize};
use serde_json::Value;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// A bench group's artifact.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Artifact {
    pub group: String,
    pub env: Env,
    pub rows: Vec<Row>,
}

/// Where an artifact was measured.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Env {
    /// CPUs available to the run.
    pub cpus: usize,
    /// `release` or `debug`, from `cfg!(debug_assertions)`.
    pub profile: String,
    /// `git describe --always --dirty`, or `unknown` outside a checkout.
    pub rev: String,
}

/// One measurement: what ran, and what it measured.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Row {
    /// `<kind>/<label>`, unique within the group.
    pub id: String,
    pub params: BTreeMap<String, Value>,
    pub metrics: BTreeMap<String, f64>,
}

impl Env {
    /// This process's CPU count, build profile and checkout revision.
    fn current() -> Env {
        let rev = std::process::Command::new("git")
            .args(["describe", "--always", "--dirty"])
            .current_dir(env!("CARGO_MANIFEST_DIR"))
            .output()
            .ok()
            .filter(|out| out.status.success())
            .map(|out| String::from_utf8_lossy(&out.stdout).trim().to_string())
            .filter(|rev| !rev.is_empty());
        Env {
            cpus: std::thread::available_parallelism().map_or(1, |n| n.get()),
            profile: if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            }
            .into(),
            rev: rev.unwrap_or_else(|| "unknown".into()),
        }
    }
}

impl Row {
    /// A row from its id, parameters and metrics.
    pub fn new<'a>(
        id: impl Into<String>,
        params: impl IntoIterator<Item = (&'a str, Value)>,
        metrics: impl IntoIterator<Item = (&'a str, f64)>,
    ) -> Row {
        Row {
            id: id.into(),
            params: params.into_iter().map(|(k, v)| (k.into(), v)).collect(),
            metrics: metrics.into_iter().map(|(k, v)| (k.into(), v)).collect(),
        }
    }

    /// The named parameter.
    ///
    /// # Panics
    /// If the row has no such parameter.
    pub fn param(&self, name: &str) -> &Value {
        self.params
            .get(name)
            .unwrap_or_else(|| panic!("row {} has no param `{name}`", self.id))
    }

    /// The named metric.
    ///
    /// # Panics
    /// If the row has no such metric.
    pub fn metric(&self, name: &str) -> f64 {
        *self
            .metrics
            .get(name)
            .unwrap_or_else(|| panic!("row {} has no metric `{name}`", self.id))
    }
}

/// Writes `rows` as `dir/BENCH_<group>.json`, stamped with this run's
/// [`Env`], and returns the path.
pub fn write(dir: &Path, group: &str, rows: Vec<Row>) -> PathBuf {
    let path = dir.join(format!("BENCH_{group}.json"));
    crate::save_json(
        &path,
        &Artifact {
            group: group.into(),
            env: Env::current(),
            rows,
        },
    );
    path
}

/// Parses the artifact at `path`.
pub fn read(path: &Path) -> Result<Artifact, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    serde_json::from_str(&text).map_err(|e| format!("{}: {e}", path.display()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_written_artifact_reads_back_with_its_env() {
        let dir = std::env::temp_dir().join(format!("elpc-artifact-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        let rows = vec![
            Row::new(
                "overload/0.5x",
                [
                    ("solver", "elpc_delay_routed".into()),
                    ("nodes", 200.into()),
                ],
                [("p99_ms", 1.286085), ("shed", 0.0)],
            ),
            Row::new("banked", [("fraction", 0.5.into())], [("requests", 96.0)]),
        ];
        let path = write(&dir, "roundtrip", rows.clone());
        let back = read(&path).expect("own artifact parses");
        std::fs::remove_dir_all(&dir).expect("clean up");

        assert_eq!(back.group, "roundtrip");
        assert_eq!(back.rows, rows, "rows come back identical");
        let want = if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        };
        assert_eq!(back.env.profile, want);
        assert!(back.env.cpus >= 1);
        assert!(!back.env.rev.is_empty());
        assert_eq!(
            back.rows[0].param("solver").as_str(),
            Some("elpc_delay_routed")
        );
        assert_eq!(back.rows[0].metric("p99_ms"), 1.286085);
    }
}
