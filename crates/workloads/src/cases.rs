//! The 20-case experiment suite (Fig. 2 / Fig. 5 / Fig. 6).
//!
//! The paper tabulates 20 cases of growing `(m modules, n nodes, l links)`
//! and reports minimum end-to-end delay and maximum frame rate for ELPC,
//! Streamline, and Greedy on each. The scanned PDF's table is OCR-garbled,
//! so the *exact* published dimensions and random draws are unrecoverable;
//! this suite reconstructs the study's shape with seeded stand-ins: a
//! geometric progression from the paper's worked small case (5 modules,
//! 6 nodes — shown in Fig. 3/4) up to large instances, with one fixed seed
//! per case.
//!
//! Note on the small case: the paper says "5 modules, 6 nodes, and 32
//! links", but a 6-node simple graph holds at most 15 undirected links —
//! the authors evidently counted per-direction (≤ 30) plus parallels. Our
//! case 1 uses the complete `K6` (15 undirected = 30 directed links).

use crate::{InstanceSpec, ProblemInstance};
use serde::{Deserialize, Serialize};

/// One row of the suite: dimensions plus the generation seed.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CaseSpec {
    /// 1-based case number (the x-axis of Fig. 5/6).
    pub number: usize,
    /// Pipeline modules `m`.
    pub modules: usize,
    /// Network nodes `n`.
    pub nodes: usize,
    /// Undirected links `l`.
    pub links: usize,
    /// Generation seed.
    pub seed: u64,
}

impl CaseSpec {
    /// Materializes the case into a problem instance.
    pub fn generate(&self) -> crate::Result<ProblemInstance> {
        let mut inst =
            InstanceSpec::sized(self.modules, self.nodes, self.links).generate(self.seed)?;
        inst.label = format!(
            "case {:02}: m={} n={} l={}",
            self.number, self.modules, self.nodes, self.links
        );
        Ok(inst)
    }
}

/// The 20-case suite. Dimensions grow geometrically; every case keeps
/// `m ≤ n` so the no-reuse frame-rate problem stays structurally feasible,
/// and `l` within the simple-graph bound.
pub fn paper_cases() -> Vec<CaseSpec> {
    const DIMS: [(usize, usize, usize); 20] = [
        (5, 6, 15), // the Fig. 3/4 worked small case (K6)
        (6, 8, 20),
        (8, 10, 28),
        (10, 14, 40),
        (10, 20, 60),
        (12, 25, 80),
        (14, 30, 100),
        (16, 40, 150),
        (18, 50, 200),
        (20, 60, 260),
        (25, 70, 340),
        (30, 80, 420),
        (35, 90, 520),
        (40, 100, 620),
        (45, 120, 800),
        (50, 140, 1000),
        (60, 160, 1300),
        (70, 180, 1600),
        (85, 200, 2000),
        (100, 220, 2500),
    ];
    DIMS.iter()
        .enumerate()
        .map(|(i, &(m, n, l))| CaseSpec {
            number: i + 1,
            modules: m,
            nodes: n,
            links: l,
            // one published seed per case; 0x454C5043 = "ELPC"
            seed: 0x454C_5043_u64 * 1000 + i as u64,
        })
        .collect()
}

/// The worked small instance of Fig. 3/4: 5 modules on a complete 6-node
/// network, fixed seed.
pub fn small_case() -> crate::Result<ProblemInstance> {
    let mut inst = paper_cases()[0].generate()?;
    inst.label = "Fig. 3/4 small case: 5 modules, 6 nodes (K6)".to_string();
    Ok(inst)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suite_has_twenty_monotonically_growing_cases() {
        let cases = paper_cases();
        assert_eq!(cases.len(), 20);
        for w in cases.windows(2) {
            assert!(w[0].modules <= w[1].modules);
            assert!(w[0].nodes < w[1].nodes);
            assert!(w[0].links < w[1].links);
        }
        assert_eq!(cases[0].number, 1);
        assert_eq!(cases[19].number, 20);
    }

    #[test]
    fn every_case_respects_structural_bounds() {
        for c in paper_cases() {
            assert!(c.modules >= 2);
            assert!(c.modules <= c.nodes, "case {}: m > n", c.number);
            assert!(
                c.links >= c.nodes - 1,
                "case {}: disconnected budget",
                c.number
            );
            assert!(
                c.links <= c.nodes * (c.nodes - 1) / 2,
                "case {}: too many links",
                c.number
            );
        }
    }

    #[test]
    fn small_cases_generate_valid_instances() {
        // generating all 20 is cheap enough except the largest; test 1-10
        for c in &paper_cases()[..10] {
            let inst = c.generate().unwrap();
            let (m, n, l) = inst.dims();
            assert_eq!((m, n, l), (c.modules, c.nodes, c.links));
            assert!(inst.network.validate().is_ok());
            assert!(inst.as_instance().hop_feasible(true));
        }
    }

    #[test]
    fn small_case_matches_the_figures() {
        let inst = small_case().unwrap();
        assert_eq!(inst.pipeline.len(), 5);
        assert_eq!(inst.network.node_count(), 6);
        assert!(inst.label.contains("Fig. 3/4"));
    }

    #[test]
    fn case_generation_is_reproducible() {
        let a = paper_cases()[3].generate().unwrap();
        let b = paper_cases()[3].generate().unwrap();
        assert_eq!(a.pipeline, b.pipeline);
        assert_eq!(a.src, b.src);
        assert_eq!(a.dst, b.dst);
    }
}
