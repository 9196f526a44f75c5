//! ASCII bar charts used to render the paper's figures in a terminal,
//! plus compact sparklines for cycle-domain time series.

use std::fmt;

/// Block characters from empty to full, used by [`sparkline`].
const SPARK_LEVELS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];

/// Renders a time series as a one-line sparkline, scaled to `max`
/// (values above `max` clamp to the full block; a non-positive `max`
/// is treated as the series' own maximum).
///
/// Long series are downsampled to at most `width` points by averaging
/// equal-width spans, so a 100 000-sample occupancy series still reads
/// as one terminal line.
///
/// # Examples
///
/// ```
/// use dgl_stats::chart::sparkline;
///
/// let s = sparkline(&[0.0, 1.0, 2.0, 3.0], 3.0, 80);
/// assert_eq!(s.chars().count(), 4);
/// assert!(s.starts_with('▁') && s.ends_with('█'));
/// ```
pub fn sparkline(values: &[f64], max: f64, width: usize) -> String {
    if values.is_empty() || width == 0 {
        return String::new();
    }
    let max = if max > 0.0 {
        max
    } else {
        values.iter().copied().fold(0.0f64, f64::max).max(1e-12)
    };
    let points: Vec<f64> = if values.len() <= width {
        values.to_vec()
    } else {
        // Average each of `width` equal spans.
        (0..width)
            .map(|i| {
                let lo = i * values.len() / width;
                let hi = (((i + 1) * values.len()) / width).max(lo + 1);
                values[lo..hi].iter().sum::<f64>() / (hi - lo) as f64
            })
            .collect()
    };
    points
        .iter()
        .map(|&v| {
            let frac = (v / max).clamp(0.0, 1.0);
            let idx = (frac * (SPARK_LEVELS.len() - 1) as f64).round() as usize;
            SPARK_LEVELS[idx]
        })
        .collect()
}

/// A horizontal ASCII bar chart.
///
/// The `scheme_comparison` example uses this to render the paper's bar
/// charts as text.
///
/// # Examples
///
/// ```
/// use dgl_stats::BarChart;
///
/// let mut c = BarChart::new("normalized IPC", 1.0);
/// c.bar("mcf_like", 0.52);
/// let s = c.to_string();
/// assert!(s.contains("mcf_like"));
/// ```
#[derive(Debug, Clone)]
pub struct BarChart {
    title: String,
    max_value: f64,
    width: usize,
    bars: Vec<(String, f64)>,
}

impl BarChart {
    /// Creates a chart. `max_value` is the value that fills the full bar
    /// width; values above it are clamped visually (the numeric label is
    /// always exact).
    pub fn new(title: &str, max_value: f64) -> Self {
        Self {
            title: title.to_owned(),
            max_value: if max_value > 0.0 { max_value } else { 1.0 },
            width: 50,
            bars: Vec::new(),
        }
    }

    /// Sets the bar width in characters (default 50).
    pub fn width(&mut self, width: usize) -> &mut Self {
        self.width = width.max(1);
        self
    }

    /// Appends a labelled bar.
    pub fn bar(&mut self, label: &str, value: f64) -> &mut Self {
        self.bars.push((label.to_owned(), value));
        self
    }

    /// Number of bars.
    pub fn len(&self) -> usize {
        self.bars.len()
    }

    /// Whether the chart has no bars.
    pub fn is_empty(&self) -> bool {
        self.bars.is_empty()
    }
}

impl fmt::Display for BarChart {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{}", self.title)?;
        let label_w = self
            .bars
            .iter()
            .map(|(l, _)| l.chars().count())
            .max()
            .unwrap_or(0);
        for (label, value) in &self.bars {
            let frac = (value / self.max_value).clamp(0.0, 1.0);
            let filled = (frac * self.width as f64).round() as usize;
            writeln!(
                f,
                "{label:<label_w$} |{}{} {value:.3}",
                "#".repeat(filled),
                " ".repeat(self.width - filled),
            )?;
        }
        Ok(())
    }
}

/// Fill characters assigned to stacked-bar segments in legend order;
/// charts with more segments than fills cycle through the palette.
const STACK_FILLS: [char; 10] = ['#', '=', '+', '-', 'o', 'x', '*', '%', '@', '~'];

/// A horizontal stacked ASCII bar chart: every bar is split into the
/// same ordered set of segments, each rendered with its own fill
/// character and named once in a legend line.
///
/// `dgl explain --cpi` uses this to draw per-configuration CPI stacks
/// side by side.
///
/// # Examples
///
/// ```
/// use dgl_stats::StackedBarChart;
///
/// let mut c = StackedBarChart::new("cycles", &["commit", "mem"]);
/// c.bar("base", &[60.0, 40.0]);
/// let s = c.to_string();
/// assert!(s.contains("# commit"));
/// assert!(s.contains("base"));
/// ```
#[derive(Debug, Clone)]
pub struct StackedBarChart {
    title: String,
    width: usize,
    segments: Vec<String>,
    bars: Vec<(String, Vec<f64>)>,
}

impl StackedBarChart {
    /// Creates a chart whose bars all share the ordered `segments`.
    pub fn new(title: &str, segments: &[&str]) -> Self {
        Self {
            title: title.to_owned(),
            width: 60,
            segments: segments.iter().map(|s| (*s).to_owned()).collect(),
            bars: Vec::new(),
        }
    }

    /// Sets the bar width in characters (default 60).
    pub fn width(&mut self, width: usize) -> &mut Self {
        self.width = width.max(1);
        self
    }

    /// Appends a labelled bar; `values` must carry one entry per
    /// segment, in the order given to [`StackedBarChart::new`].
    pub fn bar(&mut self, label: &str, values: &[f64]) -> &mut Self {
        assert_eq!(
            values.len(),
            self.segments.len(),
            "bar `{label}` must have one value per segment"
        );
        self.bars.push((label.to_owned(), values.to_vec()));
        self
    }

    /// Number of bars.
    pub fn len(&self) -> usize {
        self.bars.len()
    }

    /// Whether the chart has no bars.
    pub fn is_empty(&self) -> bool {
        self.bars.is_empty()
    }

    fn fill(i: usize) -> char {
        STACK_FILLS[i % STACK_FILLS.len()]
    }
}

impl fmt::Display for StackedBarChart {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{}", self.title)?;
        let legend: Vec<String> = self
            .segments
            .iter()
            .enumerate()
            .map(|(i, s)| format!("{} {s}", Self::fill(i)))
            .collect();
        writeln!(f, "  [{}]", legend.join("  "))?;
        // Bars share one scale so segment widths are comparable
        // across rows.
        let max_total = self
            .bars
            .iter()
            .map(|(_, vs)| vs.iter().map(|v| v.max(0.0)).sum::<f64>())
            .fold(0.0f64, f64::max)
            .max(1e-12);
        let label_w = self
            .bars
            .iter()
            .map(|(l, _)| l.chars().count())
            .max()
            .unwrap_or(0);
        for (label, values) in &self.bars {
            let total: f64 = values.iter().map(|v| v.max(0.0)).sum();
            let mut row = String::new();
            // Cumulative rounding: each segment gets the difference of
            // rounded prefix sums, so widths sum to the bar's own
            // rounded length and rounding error never accumulates.
            let mut cum = 0.0;
            let mut drawn = 0usize;
            for (i, v) in values.iter().enumerate() {
                cum += v.max(0.0);
                let upto = (cum / max_total * self.width as f64).round() as usize;
                for _ in drawn..upto {
                    row.push(Self::fill(i));
                }
                drawn = drawn.max(upto);
            }
            row.extend(std::iter::repeat_n(' ', self.width - drawn.min(self.width)));
            writeln!(f, "{label:<label_w$} |{row} {total:.3}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_title_and_bars() {
        let mut c = BarChart::new("t", 1.0);
        c.bar("a", 0.5).bar("b", 1.0);
        let s = c.to_string();
        assert!(s.starts_with("t\n"));
        assert_eq!(s.lines().count(), 3);
        assert_eq!(c.len(), 2);
        assert!(!c.is_empty());
    }

    #[test]
    fn clamps_overlong_bars() {
        let mut c = BarChart::new("t", 1.0);
        c.width(10);
        c.bar("x", 5.0);
        let line = c.to_string().lines().nth(1).unwrap().to_owned();
        assert!(line.contains(&"#".repeat(10)));
        assert!(line.contains("5.000"));
    }

    #[test]
    fn zero_max_does_not_divide_by_zero() {
        let mut c = BarChart::new("t", 0.0);
        c.bar("x", 0.3);
        let _ = c.to_string();
    }

    #[test]
    fn stacked_bars_share_one_scale_and_sum_widths() {
        let mut c = StackedBarChart::new("cpi", &["commit", "mem", "scheme"]);
        c.width(40);
        c.bar("base", &[20.0, 20.0, 0.0]);
        c.bar("dom", &[20.0, 20.0, 40.0]);
        let s = c.to_string();
        assert!(s.starts_with("cpi\n"));
        assert!(s.contains("# commit"), "{s}");
        assert!(s.contains("= mem"), "{s}");
        let base = s.lines().nth(2).unwrap();
        let dom = s.lines().nth(3).unwrap();
        // The larger bar fills the full width; the smaller is half.
        assert_eq!(dom.matches('+').count(), 20, "{dom}");
        assert_eq!(base.chars().filter(|c| "#=+".contains(*c)).count(), 20);
        assert!(base.contains("40.000") && dom.contains("80.000"));
        assert_eq!(c.len(), 2);
        assert!(!c.is_empty());
    }

    #[test]
    fn stacked_bar_tiny_segments_never_overflow_width() {
        let mut c = StackedBarChart::new("t", &["a", "b"]);
        c.width(10);
        c.bar("x", &[0.0001, 0.0001]);
        c.bar("y", &[1.0, 0.0]);
        for line in c.to_string().lines().skip(2) {
            let bar: String = line.chars().skip_while(|&ch| ch != '|').collect();
            assert!(bar.len() <= 1 + 10 + 8, "{line}");
        }
    }

    #[test]
    #[should_panic(expected = "one value per segment")]
    fn stacked_bar_rejects_mismatched_values() {
        let mut c = StackedBarChart::new("t", &["a", "b"]);
        c.bar("x", &[1.0]);
    }

    #[test]
    fn sparkline_scales_and_clamps() {
        let s = sparkline(&[0.0, 5.0, 10.0, 20.0], 10.0, 80);
        let chars: Vec<char> = s.chars().collect();
        assert_eq!(chars.len(), 4);
        assert_eq!(chars[0], '▁');
        assert_eq!(chars[2], '█');
        assert_eq!(chars[3], '█', "over-max clamps to full");
    }

    #[test]
    fn sparkline_downsamples_long_series() {
        let values: Vec<f64> = (0..1000).map(|i| i as f64).collect();
        let s = sparkline(&values, 1000.0, 40);
        assert_eq!(s.chars().count(), 40);
        let chars: Vec<char> = s.chars().collect();
        assert!(chars.first() < chars.last(), "monotone series keeps shape");
    }

    #[test]
    fn sparkline_edge_cases() {
        assert_eq!(sparkline(&[], 1.0, 40), "");
        assert_eq!(sparkline(&[1.0], 1.0, 0), "");
        // max <= 0 falls back to the series' own max.
        let s = sparkline(&[0.0, 2.0], 0.0, 10);
        assert!(s.ends_with('█'));
        // All-zero series with zero max must not divide by zero.
        let z = sparkline(&[0.0, 0.0], 0.0, 10);
        assert_eq!(z.chars().count(), 2);
    }
}
