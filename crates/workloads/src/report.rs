//! Plain-text table rendering for the experiment binaries.

/// Render rows as an aligned ASCII table with a header rule.
pub(crate) fn render_table(header: &[&str], rows: &[Vec<String>]) -> String {
    let cols = header.len();
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        assert_eq!(row.len(), cols, "row width mismatch");
        for (i, cell) in row.iter().enumerate() {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let mut out = String::new();
    let line = |cells: Vec<String>, out: &mut String| {
        let mut parts = Vec::with_capacity(cols);
        for (i, c) in cells.iter().enumerate() {
            parts.push(format!("{:<width$}", c, width = widths[i]));
        }
        out.push_str(parts.join("  ").trim_end());
        out.push('\n');
    };
    line(header.iter().map(|s| s.to_string()).collect(), &mut out);
    line(
        widths.iter().map(|w| "-".repeat(*w)).collect(),
        &mut out,
    );
    for row in rows {
        line(row.clone(), &mut out);
    }
    out
}

/// Format a rate in thousands per second ("K/s", the Figure 16–20 unit).
pub(crate) fn kilo(rate_per_sec: f64) -> String {
    format!("{:.1}", rate_per_sec / 1e3)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_alignment() {
        let s = render_table(
            &["a", "long-header"],
            &[
                vec!["x".into(), "1".into()],
                vec!["yyyy".into(), "22".into()],
            ],
        );
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[1].starts_with("----"));
        // Columns align: "long-header" and values start at the same col.
        let col = lines[0].find("long-header").unwrap();
        assert_eq!(lines[2].find('1').unwrap(), col);
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn width_mismatch_panics() {
        let _ = render_table(&["a"], &[vec!["x".into(), "y".into()]]);
    }

    #[test]
    fn formatters() {
        assert_eq!(kilo(320_000.0), "320.0");
    }
}
