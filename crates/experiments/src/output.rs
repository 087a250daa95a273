//! Structured experiment outputs and renderers.
//!
//! Every experiment produces an [`ExperimentResult`]: named tables and/or
//! figures (series over a shared x-axis). Results render as aligned text
//! for the terminal or serialize to JSON for downstream plotting.

use serde::Serialize;

/// One plotted series: `label` with y-values over the figure's x-axis.
#[derive(Debug, Clone, Serialize)]
pub struct Series {
    /// Legend label.
    pub label: String,
    /// y-values, one per x-axis point.
    pub y: Vec<f64>,
}

/// A figure: an x-axis and one or more series over it.
#[derive(Debug, Clone, Serialize)]
pub struct Figure {
    /// Identifier, e.g. `"fig8a"`.
    pub id: String,
    /// Human-readable title.
    pub title: String,
    /// x-axis label.
    pub x_label: String,
    /// y-axis label.
    pub y_label: String,
    /// x-axis values.
    pub x: Vec<f64>,
    /// The series.
    pub series: Vec<Series>,
}

impl Figure {
    /// Looks up a series by label.
    pub fn series_named(&self, label: &str) -> Option<&Series> {
        self.series.iter().find(|s| s.label == label)
    }
}

/// A table: headers plus string rows.
#[derive(Debug, Clone, Serialize)]
pub struct TableOut {
    /// Identifier, e.g. `"table1"`.
    pub id: String,
    /// Human-readable title.
    pub title: String,
    /// Column headers.
    pub headers: Vec<String>,
    /// Rows of cells (same arity as headers).
    pub rows: Vec<Vec<String>>,
}

/// A complete experiment result.
#[derive(Debug, Clone)]
pub struct ExperimentResult {
    /// Experiment id (`"fig8"`, `"table1"`, ...).
    pub id: String,
    /// Title as in the paper.
    pub title: String,
    /// Notes on methodology or paper-vs-measured caveats.
    pub notes: Vec<String>,
    /// Tables produced.
    pub tables: Vec<TableOut>,
    /// Figures produced.
    pub figures: Vec<Figure>,
    /// Per-stage execution reports (fingerprint, cache hit, seconds),
    /// one per stage node the experiment requested, in request order.
    /// **Not** serialized: timings differ between runs and would break
    /// the golden-output guarantee that `--threads 1` and `--threads 8`
    /// produce byte-identical JSON.
    pub stage_reports: Vec<transit_stage::StageReport>,
}

// Hand-written so `stage_reports` stays out of the JSON (the vendored
// serde derive has no field-skip attribute).
impl Serialize for ExperimentResult {
    fn to_content(&self) -> serde::Content {
        serde::Content::Map(vec![
            ("id".into(), self.id.to_content()),
            ("title".into(), self.title.to_content()),
            ("notes".into(), self.notes.to_content()),
            ("tables".into(), self.tables.to_content()),
            ("figures".into(), self.figures.to_content()),
        ])
    }
}

impl ExperimentResult {
    /// Creates an empty result shell.
    pub fn new(id: impl Into<String>, title: impl Into<String>) -> ExperimentResult {
        ExperimentResult {
            id: id.into(),
            title: title.into(),
            notes: Vec::new(),
            tables: Vec::new(),
            figures: Vec::new(),
            stage_reports: Vec::new(),
        }
    }

    /// Renders everything as aligned terminal text.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("== {} — {} ==\n", self.id, self.title));
        for note in &self.notes {
            out.push_str(&format!("   note: {note}\n"));
        }
        for t in &self.tables {
            out.push('\n');
            out.push_str(&render_table(t));
        }
        for f in &self.figures {
            out.push('\n');
            out.push_str(&render_figure(f));
        }
        out
    }

    /// Serializes to pretty JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("results are serializable")
    }
}

/// Renders a table with aligned columns.
pub fn render_table(t: &TableOut) -> String {
    let mut widths: Vec<usize> = t.headers.iter().map(String::len).collect();
    for row in &t.rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let fmt_row = |cells: &[String]| -> String {
        let mut line = String::from("  ");
        for (i, cell) in cells.iter().enumerate() {
            line.push_str(&format!("{:<width$}  ", cell, width = widths[i]));
        }
        line.trim_end().to_string() + "\n"
    };
    let mut out = format!("[{}] {}\n", t.id, t.title);
    out.push_str(&fmt_row(&t.headers));
    let underline: Vec<String> = widths.iter().map(|w| "-".repeat(*w)).collect();
    out.push_str(&fmt_row(&underline));
    for row in &t.rows {
        out.push_str(&fmt_row(row));
    }
    out
}

/// Renders a figure as a table: x column plus one column per series.
pub fn render_figure(f: &Figure) -> String {
    let mut t = TableOut {
        id: f.id.clone(),
        title: format!("{} ({} vs {})", f.title, f.y_label, f.x_label),
        headers: std::iter::once(f.x_label.clone())
            .chain(f.series.iter().map(|s| s.label.clone()))
            .collect(),
        rows: Vec::new(),
    };
    for (i, &x) in f.x.iter().enumerate() {
        let mut row = vec![trim_num(x)];
        for s in &f.series {
            row.push(s.y.get(i).map(|&v| trim_num(v)).unwrap_or_default());
        }
        t.rows.push(row);
    }
    render_table(&t)
}

/// Formats a number compactly (4 significant-ish decimals, no trailing
/// zeros).
pub fn trim_num(v: f64) -> String {
    // Collapse negative zero and sub-epsilon values to "0".
    let v = if v.abs() < 1e-9 { 0.0 } else { v };
    if v == v.trunc() && v.abs() < 1e12 {
        format!("{}", v as i64)
    } else {
        let s = format!("{v:.4}");
        s.trim_end_matches('0').trim_end_matches('.').to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn figure() -> Figure {
        Figure {
            id: "figX".into(),
            title: "Test".into(),
            x_label: "# of bundles".into(),
            y_label: "capture".into(),
            x: vec![1.0, 2.0],
            series: vec![
                Series {
                    label: "Optimal".into(),
                    y: vec![0.0, 0.75],
                },
                Series {
                    label: "Cost division".into(),
                    y: vec![0.0, 0.5],
                },
            ],
        }
    }

    #[test]
    fn table_renders_aligned() {
        let t = TableOut {
            id: "t".into(),
            title: "T".into(),
            headers: vec!["a".into(), "long header".into()],
            rows: vec![vec!["xxxxxx".into(), "1".into()]],
        };
        let s = render_table(&t);
        assert!(s.contains("a       long header"));
        assert!(s.contains("xxxxxx  1"));
    }

    #[test]
    fn figure_renders_series_columns() {
        let s = render_figure(&figure());
        assert!(s.contains("Optimal"));
        assert!(s.contains("Cost division"));
        assert!(s.contains("0.75"));
    }

    #[test]
    fn series_lookup() {
        let f = figure();
        assert!(f.series_named("Optimal").is_some());
        assert!(f.series_named("Nope").is_none());
    }

    #[test]
    fn json_roundtrips_structurally() {
        let mut r = ExperimentResult::new("fig8", "Profit capture");
        r.figures.push(figure());
        let json = r.to_json();
        let parsed: serde_json::Value = serde_json::from_str(&json).unwrap();
        assert_eq!(parsed["id"], "fig8");
        assert_eq!(parsed["figures"][0]["series"][0]["label"], "Optimal");
    }

    #[test]
    fn trim_num_is_compact() {
        assert_eq!(trim_num(1.0), "1");
        assert_eq!(trim_num(0.75), "0.75");
        assert_eq!(trim_num(0.123456), "0.1235");
        assert_eq!(trim_num(-2.5), "-2.5");
    }

    #[test]
    fn render_text_includes_notes() {
        let mut r = ExperimentResult::new("x", "y");
        r.notes.push("hello".into());
        assert!(r.render_text().contains("note: hello"));
    }
}

/// Renders a figure as an ASCII line chart (terminal plotting).
///
/// Each series gets a symbol; y is scaled into `height` rows and x into
/// `width` columns. Collisions print the later series' symbol. Meant for
/// eyeballing trends in a terminal; the table renderer remains the
/// precise view.
pub fn render_ascii_chart(f: &Figure, width: usize, height: usize) -> String {
    const SYMBOLS: [char; 8] = ['o', '*', '+', 'x', '#', '@', '%', '&'];
    let width = width.max(8);
    let height = height.max(4);

    let ys: Vec<f64> = f
        .series
        .iter()
        .flat_map(|s| s.y.iter().copied())
        .filter(|v| v.is_finite())
        .collect();
    let xs = &f.x;
    if ys.is_empty() || xs.len() < 2 {
        return format!("[{}] (not enough data to chart)\n", f.id);
    }
    let (y_min, y_max) = ys
        .iter()
        .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &v| {
            (lo.min(v), hi.max(v))
        });
    let y_span = if (y_max - y_min).abs() < 1e-12 {
        1.0
    } else {
        y_max - y_min
    };
    let x_min = xs[0];
    let x_span = xs[xs.len() - 1] - x_min;
    let x_span = if x_span.abs() < 1e-12 { 1.0 } else { x_span };

    let mut grid = vec![vec![' '; width]; height];
    for (si, s) in f.series.iter().enumerate() {
        let symbol = SYMBOLS[si % SYMBOLS.len()];
        for (i, &y) in s.y.iter().enumerate() {
            if !y.is_finite() || i >= xs.len() {
                continue;
            }
            let col = (((xs[i] - x_min) / x_span) * (width - 1) as f64).round() as usize;
            let row = (((y - y_min) / y_span) * (height - 1) as f64).round() as usize;
            grid[height - 1 - row][col.min(width - 1)] = symbol;
        }
    }

    let mut out = format!("[{}] {}\n", f.id, f.title);
    for (ri, row) in grid.iter().enumerate() {
        let label = if ri == 0 {
            format!("{:>8.3} ", y_max)
        } else if ri == height - 1 {
            format!("{:>8.3} ", y_min)
        } else {
            " ".repeat(9)
        };
        out.push_str(&label);
        out.push('|');
        out.push_str(&row.iter().collect::<String>());
        out.push('\n');
    }
    out.push_str(&" ".repeat(9));
    out.push('+');
    out.push_str(&"-".repeat(width));
    out.push('\n');
    out.push_str(&format!(
        "{:>9}{:<width$}\n",
        " ",
        format!(
            "{} {} .. {}",
            f.x_label,
            trim_num(xs[0]),
            trim_num(xs[xs.len() - 1])
        ),
        width = width
    ));
    let legend: Vec<String> = f
        .series
        .iter()
        .enumerate()
        .map(|(i, s)| format!("{} {}", SYMBOLS[i % SYMBOLS.len()], s.label))
        .collect();
    out.push_str(&format!("{:>9}{}\n", " ", legend.join("   ")));
    out
}

#[cfg(test)]
mod chart_tests {
    use super::*;

    fn figure() -> Figure {
        Figure {
            id: "c".into(),
            title: "Chart".into(),
            x_label: "bundles".into(),
            y_label: "capture".into(),
            x: vec![1.0, 2.0, 3.0, 4.0],
            series: vec![
                Series {
                    label: "up".into(),
                    y: vec![0.0, 0.4, 0.8, 1.0],
                },
                Series {
                    label: "flat".into(),
                    y: vec![0.5, 0.5, 0.5, 0.5],
                },
            ],
        }
    }

    #[test]
    fn chart_contains_symbols_and_legend() {
        let s = render_ascii_chart(&figure(), 40, 10);
        assert!(s.contains('o'), "first series symbol");
        assert!(s.contains('*'), "second series symbol");
        assert!(s.contains("o up"));
        assert!(s.contains("* flat"));
        assert!(s.contains("bundles 1 .. 4"));
    }

    #[test]
    fn chart_extremes_on_correct_rows() {
        let s = render_ascii_chart(&figure(), 40, 10);
        let lines: Vec<&str> = s.lines().collect();
        // Row 1 (top of the grid) holds y_max = 1 and the 'o' at x = 4.
        assert!(lines[1].starts_with("   "));
        assert!(lines[1].contains('o'));
        // Bottom grid row holds y_min = 0 and the 'o' at x = 1.
        assert!(lines[10].contains('o'));
    }

    #[test]
    fn chart_handles_degenerate_input() {
        let f = Figure {
            id: "d".into(),
            title: "Deg".into(),
            x_label: "x".into(),
            y_label: "y".into(),
            x: vec![1.0],
            series: vec![Series {
                label: "one".into(),
                y: vec![1.0],
            }],
        };
        let s = render_ascii_chart(&f, 20, 5);
        assert!(s.contains("not enough data"));
    }

    #[test]
    fn constant_series_does_not_divide_by_zero() {
        let f = Figure {
            id: "k".into(),
            title: "Const".into(),
            x_label: "x".into(),
            y_label: "y".into(),
            x: vec![1.0, 2.0],
            series: vec![Series {
                label: "c".into(),
                y: vec![3.0, 3.0],
            }],
        };
        let s = render_ascii_chart(&f, 20, 5);
        assert!(s.contains('o'));
    }
}
