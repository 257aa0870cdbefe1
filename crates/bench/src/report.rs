//! Result rendering shared by the figure entries.
//!
//! Every figure funnels its results through one [`FigureReport`]: the
//! text in `results/<figure>.txt` and the JSON sidecar in
//! `results/<figure>.json` are two views of the same structure, so they
//! can never drift apart.

use std::fmt::Write;

use maple_sim::stats::geomean;
use maple_trace::{stall_json, stall_table, Json, StallRow};

use crate::figures::Output;

/// The figure banner.
#[must_use]
pub fn banner(figure: &str, paper_claim: &str) -> String {
    let rule = "================================================================";
    format!("{rule}\n{figure}\npaper: {paper_claim}\n{rule}\n")
}

/// A speedup table: rows are `(app, dataset)` pairs, columns are
/// variants, cells are speedups over the row's baseline.
#[derive(Debug, Default)]
pub struct SpeedupTable {
    columns: Vec<String>,
    rows: Vec<(String, Vec<f64>)>,
    unit: Option<String>,
}

impl SpeedupTable {
    /// Creates a table with the given variant columns.
    #[must_use]
    pub fn new(columns: &[&str]) -> Self {
        SpeedupTable {
            columns: columns.iter().map(|s| (*s).to_owned()).collect(),
            rows: Vec::new(),
            unit: None,
        }
    }

    /// Switches the cell unit from the default speedup ratio (`x`) to
    /// another suffix (`cy` for the Figure 11 latency view). Non-ratio
    /// tables omit the geomean footer.
    #[must_use]
    pub fn with_unit(mut self, unit: &str) -> Self {
        self.unit = Some(unit.to_owned());
        self
    }

    /// Adds a row of speedups (same order as the columns).
    ///
    /// # Panics
    ///
    /// Panics if the value count does not match the column count.
    pub fn add_row(&mut self, label: impl Into<String>, values: Vec<f64>) {
        assert_eq!(values.len(), self.columns.len(), "column count mismatch");
        self.rows.push((label.into(), values));
    }

    /// Geometric mean per column.
    #[must_use]
    pub fn geomeans(&self) -> Vec<f64> {
        (0..self.columns.len())
            .map(|c| geomean(&self.rows.iter().map(|(_, v)| v[c]).collect::<Vec<_>>()))
            .collect()
    }

    /// Renders the table; ratio tables get a geomean footer.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = format!("{:<22}", "workload");
        for c in &self.columns {
            let _ = write!(out, "{c:>12}");
        }
        out.push('\n');
        for (label, values) in &self.rows {
            let _ = write!(out, "{label:<22}");
            for v in values {
                let _ = match &self.unit {
                    None => write!(out, "{v:>11.2}x"),
                    Some(u) => write!(out, "{v:>10.1}{u}"),
                };
            }
            out.push('\n');
        }
        if self.unit.is_none() {
            let _ = write!(out, "{:<22}", "geomean");
            for g in self.geomeans() {
                let _ = write!(out, "{g:>11.2}x");
            }
            out.push('\n');
        }
        out
    }

    /// JSON form: columns, per-row cells, and (for ratio tables) the
    /// geomean footer.
    #[must_use]
    pub fn to_json(&self) -> Json {
        let mut members = vec![
            (
                "unit",
                Json::from(self.unit.clone().unwrap_or_else(|| "x".to_owned())),
            ),
            (
                "columns",
                Json::Array(self.columns.iter().map(|c| Json::from(c.clone())).collect()),
            ),
            (
                "rows",
                Json::Array(
                    self.rows
                        .iter()
                        .map(|(label, values)| {
                            Json::obj(vec![
                                ("workload", Json::from(label.clone())),
                                (
                                    "values",
                                    Json::Array(values.iter().map(|&v| Json::from(v)).collect()),
                                ),
                            ])
                        })
                        .collect(),
                ),
            ),
        ];
        if self.unit.is_none() {
            members.push((
                "geomeans",
                Json::Array(self.geomeans().into_iter().map(Json::from).collect()),
            ));
        }
        Json::obj(members)
    }
}

/// One headline number printed under a figure's table (a geomean, a
/// latency) next to the paper's claimed value.
#[derive(Debug, Clone)]
pub struct SummaryLine {
    /// What the number is.
    pub label: String,
    /// The measured value.
    pub value: f64,
    /// Unit suffix in the text rendering (`"x"`, `"cy"`).
    pub unit: String,
    /// The paper's claim, quoted alongside.
    pub paper: String,
}

/// The single renderer behind every figure: one structure, two views
/// (the `results/<figure>.txt` text and the `results/<figure>.json`
/// sidecar).
#[derive(Debug, Default)]
pub struct FigureReport {
    /// Short slug (`fig08`) naming the sidecar file.
    pub figure: String,
    /// Human title printed in the banner.
    pub title: String,
    /// The paper's claimed result.
    pub paper: String,
    /// The main speedup/ratio table, when the figure has one.
    pub table: Option<SpeedupTable>,
    /// Headline numbers printed under the table.
    pub lines: Vec<SummaryLine>,
    /// Stall-attribution rows (ours; not in the paper), when available.
    pub stalls: Vec<StallRow>,
}

impl FigureReport {
    /// Creates an empty report.
    #[must_use]
    pub fn new(figure: &str, title: &str, paper: &str) -> Self {
        FigureReport {
            figure: figure.into(),
            title: title.into(),
            paper: paper.into(),
            ..FigureReport::default()
        }
    }

    /// Adds a headline number.
    pub fn line(&mut self, label: &str, value: f64, unit: &str, paper: &str) {
        self.lines.push(SummaryLine {
            label: label.into(),
            value,
            unit: unit.into(),
            paper: paper.into(),
        });
    }

    /// The text view.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = banner(&self.title, &self.paper);
        if let Some(t) = &self.table {
            out += &t.render();
        }
        if !self.lines.is_empty() {
            out.push('\n');
            let width = self.lines.iter().map(|l| l.label.len()).max().unwrap_or(0);
            for l in &self.lines {
                let _ = writeln!(
                    out,
                    "{:<width$}  {:>7.2}{}   [paper: {}]",
                    l.label, l.value, l.unit, l.paper
                );
            }
        }
        if !self.stalls.is_empty() {
            out += "\nStall attribution (ours):\n";
            out += &stall_table(&self.stalls);
        }
        out
    }

    /// The JSON view backing the sidecar.
    #[must_use]
    pub fn to_json(&self) -> Json {
        let mut members = vec![
            ("figure", Json::from(self.figure.clone())),
            ("title", Json::from(self.title.clone())),
            ("paper", Json::from(self.paper.clone())),
        ];
        if let Some(t) = &self.table {
            members.push(("table", t.to_json()));
        }
        if !self.lines.is_empty() {
            members.push((
                "summary",
                Json::Array(
                    self.lines
                        .iter()
                        .map(|l| {
                            Json::obj(vec![
                                ("label", Json::from(l.label.clone())),
                                ("value", Json::from(l.value)),
                                ("unit", Json::from(l.unit.clone())),
                                ("paper", Json::from(l.paper.clone())),
                            ])
                        })
                        .collect(),
                ),
            ));
        }
        if !self.stalls.is_empty() {
            members.push(("stall_attribution", stall_json(&self.stalls)));
        }
        Json::obj(members)
    }

    /// Both views: the text and the JSON sidecar.
    #[must_use]
    pub fn output(&self) -> Output {
        Output {
            text: self.render(),
            sidecar: Some(self.to_json()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geomeans_per_column() {
        let mut t = SpeedupTable::new(&["a", "b"]);
        t.add_row("w1", vec![2.0, 1.0]);
        t.add_row("w2", vec![8.0, 1.0]);
        let g = t.geomeans();
        assert!((g[0] - 4.0).abs() < 1e-12);
        assert!((g[1] - 1.0).abs() < 1e-12);
        let text = t.render();
        assert_eq!(text.lines().count(), 4);
        assert!(text.lines().last().unwrap().starts_with("geomean"));
    }

    #[test]
    #[should_panic(expected = "column count mismatch")]
    fn row_arity_checked() {
        let mut t = SpeedupTable::new(&["a"]);
        t.add_row("w", vec![1.0, 2.0]);
    }

    #[test]
    fn report_json_round_trips() {
        let mut r = FigureReport::new("figXX", "Test figure", "claim");
        let mut t = SpeedupTable::new(&["base", "ours"]);
        t.add_row("w1", vec![1.0, 2.0]);
        r.table = Some(t);
        r.line("ours over base (geomean)", 2.0, "x", "2.1x");
        let j = r.to_json();
        let parsed = Json::parse(&j.render()).unwrap();
        assert_eq!(parsed, j);
        let table = parsed.get("table").unwrap();
        let g = table.get("geomeans").unwrap().as_array().unwrap();
        assert!((g[1].as_f64().unwrap() - 2.0).abs() < 1e-12);
        assert_eq!(parsed.get("figure").and_then(|f| f.as_str()), Some("figXX"));
    }
}
