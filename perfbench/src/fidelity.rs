//! Paper fidelity of the regenerated Table 2: mean absolute error of
//! the 12 speedup cells and the 12 energy cells against the published
//! values (EXPERIMENTS.md, T2).

/// Published Table 2 rows: speedup vs OS, speedup vs WS, energy
/// reduction vs OS (%), energy reduction vs WS (%), in the paper's row
/// order.
const PAPER_T2: [(&str, f64, f64, f64, f64); 6] = [
    ("AlexNet", 1.00, 1.19, -2.0, 6.0),
    ("1.00-MobileNet-224", 1.91, 6.35, 8.0, 6.0),
    ("Tiny Darknet", 1.14, 1.32, 0.0, 24.0),
    ("SqueezeNet v1.0", 1.26, 2.06, 6.0, 23.0),
    ("SqueezeNet v1.1", 1.34, 1.18, 8.0, 10.0),
    ("1.0-SqNxt-23v5", 1.26, 2.44, 0.0, 20.0),
];

/// Table 2 error against the paper.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct T2Error {
    /// Mean of |measured − paper| / paper over the speedup cells, in %.
    pub speedup_err_pct: f64,
    /// Mean of |measured − paper| over the energy cells, in points.
    pub energy_err_pts: f64,
}

/// Scores a Table 2 CSV (`Network,Speedup vs OS,Speedup vs WS,Energy vs
/// OS,Energy vs WS`, cells like `1.32x` and `-2%`).
pub fn t2_error(csv: &str) -> Result<T2Error, String> {
    let rows: Vec<Vec<&str>> = csv.lines().skip(1).map(|l| l.split(',').collect()).collect();
    if rows.len() != PAPER_T2.len() {
        return Err(format!("table 2 has {} rows, expected {}", rows.len(), PAPER_T2.len()));
    }
    let cell = |s: &str, suffix: char| -> Result<f64, String> {
        s.strip_suffix(suffix)
            .and_then(|v| v.parse().ok())
            .ok_or_else(|| format!("bad table 2 cell `{s}`"))
    };
    let (mut speedup, mut energy) = (0.0, 0.0);
    for (row, paper) in rows.iter().zip(PAPER_T2) {
        if row.len() != 5 || row[0] != paper.0 {
            return Err(format!("table 2 row {row:?} does not match paper row `{}`", paper.0));
        }
        speedup += (cell(row[1], 'x')? - paper.1).abs() / paper.1
            + (cell(row[2], 'x')? - paper.2).abs() / paper.2;
        energy += (cell(row[3], '%')? - paper.3).abs() + (cell(row[4], '%')? - paper.4).abs();
    }
    let cells = 2.0 * PAPER_T2.len() as f64;
    Ok(T2Error { speedup_err_pct: 100.0 * speedup / cells, energy_err_pts: energy / cells })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn golden_table2_scores_27_37_pct_and_6_5_pts() {
        let golden = std::fs::read_to_string(concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../tests/golden/table2.csv"
        ))
        .expect("golden table 2");
        let e = t2_error(&golden).expect("well-formed golden table");
        assert_eq!(format!("{:.2}", e.speedup_err_pct), "27.37");
        assert_eq!(e.energy_err_pts, 6.5);
    }

    #[test]
    fn malformed_tables_are_refused() {
        assert!(t2_error("header\nAlexNet,1x,1x,0%,0%").is_err());
        let golden = std::fs::read_to_string(concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../tests/golden/table2.csv"
        ))
        .unwrap();
        assert!(t2_error(&golden.replace("AlexNet", "LeNet")).is_err());
    }
}
