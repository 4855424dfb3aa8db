//! Parameter sweeps: the client-count axis of the paper's figures and
//! deterministic seed derivation for multi-scenario averaging.

/// Client counts on the x-axis of the paper's Figures 4 and 5.
pub fn paper_client_counts() -> Vec<usize> {
    vec![20, 40, 60, 80, 100, 150, 200]
}

/// Derives the per-scenario seeds for one sweep point, spreading a base
/// seed so different points and repetitions never share RNG streams.
///
/// The paper averages "at least 20 (5 for 200 clients) different
/// scenarios" per point; callers pick `count` accordingly.
pub fn scenario_seeds(base: u64, num_clients: usize, count: usize) -> Vec<u64> {
    (0..count as u64)
        // SplitMix-style spreading keeps seeds well separated even for
        // adjacent (base, n, rep) triples.
        .map(|rep| {
            let mut z = base
                .wrapping_add(0x9E37_79B9_7F4A_7C15u64.wrapping_mul(num_clients as u64 + 1))
                .wrapping_add(rep.wrapping_mul(0xBF58_476D_1CE4_E5B9));
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn paper_counts_match_figure_axis() {
        assert_eq!(paper_client_counts(), vec![20, 40, 60, 80, 100, 150, 200]);
    }

    #[test]
    fn seeds_are_deterministic_and_distinct() {
        let a = scenario_seeds(1, 100, 20);
        let b = scenario_seeds(1, 100, 20);
        assert_eq!(a, b);
        let unique: HashSet<u64> = a.iter().copied().collect();
        assert_eq!(unique.len(), 20);
        // Different points do not share seeds.
        let c = scenario_seeds(1, 150, 20);
        assert!(a.iter().all(|s| !c.contains(s)));
        // Different bases do not share seeds.
        let d = scenario_seeds(2, 100, 20);
        assert!(a.iter().all(|s| !d.contains(s)));
    }
}
