//! The benchmark's arithmetic: medians, geometric means, ratios and the
//! distance of the Fig 12 geomeans from the paper's.

use stitch::Arch;

/// The paper's Fig 12 geomean speedups over the baseline chip, in
/// `Arch::ALL` order after `Baseline`: LOCUS, Stitch w/o fusion, Stitch.
pub const PAPER_FIG12: [(Arch, f64); 3] = [
    (Arch::Locus, 1.14),
    (Arch::StitchNoFusion, 1.53),
    (Arch::Stitch, 2.3),
];

/// Median of `values` (mean of the middle two for an even count);
/// `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// Index of the median element of a non-empty slice (the lower middle
/// one for an even count), so a whole pass can stand for the median.
pub fn median_index(values: &[f64]) -> usize {
    let mut idx: Vec<usize> = (0..values.len()).collect();
    idx.sort_by(|&a, &b| values[a].total_cmp(&values[b]));
    idx[(values.len() - 1) / 2]
}

/// Shuffles `items` in place with a splitmix64 stream seeded by `seed`
/// (Fisher-Yates), so one seed always gives one order.
pub fn shuffle<T>(items: &mut [T], seed: u64) {
    let mut state = seed;
    let mut next = || {
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    };
    for i in (1..items.len()).rev() {
        let j = (next() % (i as u64 + 1)) as usize;
        items.swap(i, j);
    }
}

/// Geometric mean; 1 for an empty slice (no factor moves it).
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 1.0;
    }
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// `num / den`, or 0 when nothing was attempted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Mean of `|ln(measured / paper)|` over `(measured, paper)` pairs: 0
/// when every geomean matches the paper, symmetric in over- and
/// under-shooting.
pub fn paper_gap(pairs: &[(f64, f64)]) -> f64 {
    pairs.iter().map(|(m, p)| (m / p).ln().abs()).sum::<f64>() / pairs.len() as f64
}

/// Fig 12 geomeans from per-point throughputs. `fps(app, arch)` gives a
/// point's frames per second; each arch's speedup over `Baseline` is
/// averaged geometrically over `apps`. Returns `(measured, paper)`
/// pairs in [`PAPER_FIG12`] order.
pub fn fig12_geomeans(apps: usize, fps: impl Fn(usize, Arch) -> f64) -> Vec<(f64, f64)> {
    PAPER_FIG12
        .iter()
        .map(|&(arch, paper)| {
            let rel: Vec<f64> = (0..apps)
                .map(|a| fps(a, arch) / fps(a, Arch::Baseline))
                .collect();
            (geomean(&rel), paper)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn median_index_points_at_the_median() {
        assert_eq!(median_index(&[5.0, 1.0, 3.0]), 2);
        assert_eq!(median_index(&[4.0, 1.0, 3.0, 2.0]), 3);
        assert_eq!(median_index(&[9.0]), 0);
    }

    #[test]
    fn shuffle_is_a_seeded_permutation() {
        let mut a: Vec<u32> = (0..16).collect();
        let mut b = a.clone();
        shuffle(&mut a, 7);
        shuffle(&mut b, 7);
        assert_eq!(a, b);
        let mut c: Vec<u32> = (0..16).collect();
        shuffle(&mut c, 8);
        assert_ne!(a, c);
        a.sort_unstable();
        assert_eq!(a, (0..16).collect::<Vec<_>>());
    }

    #[test]
    fn geomean_and_ratio() {
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
        assert_eq!(geomean(&[]), 1.0);
        assert_eq!(ratio(295.0, 1251.0), 295.0 / 1251.0);
        assert_eq!(ratio(1.0, 0.0), 0.0);
    }

    #[test]
    fn paper_gap_is_zero_on_the_paper_and_symmetric() {
        let exact: Vec<(f64, f64)> = PAPER_FIG12.iter().map(|&(_, p)| (p, p)).collect();
        assert_eq!(paper_gap(&exact), 0.0);
        let over = paper_gap(&[(2.0, 1.0)]);
        let under = paper_gap(&[(0.5, 1.0)]);
        assert!((over - under).abs() < 1e-15);
        assert!((over - 2f64.ln()).abs() < 1e-15);
    }

    #[test]
    fn paper_gap_of_the_recorded_fig12_geomeans() {
        // The reproduction's geomeans at the benchmark's first commit:
        // 1.11 / 1.38 / 1.44 against 1.14 / 1.53 / 2.3.
        let gap = paper_gap(&[(1.11, 1.14), (1.38, 1.53), (1.44, 2.3)]);
        assert!((gap - 0.2002).abs() < 1e-3, "{gap}");
    }

    #[test]
    fn fig12_geomeans_normalise_by_the_baseline_point() {
        // Two apps; every accelerated arch runs exactly 2x / 8x faster.
        let fps = |app: usize, arch: Arch| {
            let base = [100.0, 10.0][app];
            match arch {
                Arch::Baseline => base,
                Arch::Stitch => base * [2.0, 8.0][app],
                _ => base,
            }
        };
        let g = fig12_geomeans(2, fps);
        assert_eq!(g.len(), 3);
        assert!((g[0].0 - 1.0).abs() < 1e-12);
        assert!((g[2].0 - 4.0).abs() < 1e-12);
        assert_eq!(g[2].1, 2.3);
    }
}
