//! The `histal-experiments` command table.
//!
//! [`COMMANDS`] lists every subcommand in usage order. A spec-backed row
//! runs an embedded `specs/*.json` through [`crate::executor::run_spec`],
//! so `histal-experiments fig5` and `run --spec specs/fig5.json` are one
//! code path. The table alone decides which commands take
//! `--journal`/`resume` (every row that runs a spec), what `all` runs
//! (the paper rows, in table order) and what the usage text lists.

use histal_core::error::Error;

use crate::registry::add_selector_param;
use crate::spec::ExperimentSpec;

/// How a subcommand runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Runs {
    /// The embedded spec: `(file under specs/, its JSON)`.
    Spec(&'static str, &'static str),
    /// The spec file named by `--spec` (`run`).
    SpecFile,
    /// Code in the binary.
    Code,
}

/// One row of the command table.
#[derive(Debug, Clone, Copy)]
pub struct Command {
    /// The name on the command line.
    pub name: &'static str,
    /// How the command runs.
    pub runs: Runs,
    /// A paper table or figure: `all` runs these, in table order.
    pub paper: bool,
}

impl Command {
    /// `--journal`/`resume` work for every command that runs a spec.
    pub fn journals(&self) -> bool {
        self.runs != Runs::Code
    }
}

/// `Runs::Spec` for `specs/$file`, embedded at compile time.
macro_rules! spec {
    ($file:literal) => {
        Runs::Spec($file, include_str!(concat!("../../../specs/", $file)))
    };
}

const fn row(name: &'static str, paper: bool, runs: Runs) -> Command {
    Command { name, runs, paper }
}

/// Every `histal-experiments` subcommand, in usage order.
pub const COMMANDS: &[Command] = &[
    row("fig2", true, spec!("fig2.json")),
    row("table2", true, spec!("table2.json")),
    row("table3", true, Runs::Code),
    row("table4", true, Runs::Code),
    row("fig3-text", true, spec!("fig3_text.json")),
    row("fig3-ner", true, spec!("fig3_ner.json")),
    row("table5", true, spec!("table5.json")),
    row("fig4", true, Runs::Code),
    row("fig5", true, spec!("fig5.json")),
    row("table6", true, spec!("table6.json")),
    row("table7", true, spec!("table7.json")),
    row("noise", false, spec!("noise.json")),
    row("imbalance", false, spec!("imbalance.json")),
    row("agnostic", false, Runs::Code),
    row("sweep-batch", false, Runs::Code),
    row("compare", false, Runs::Code),
    row("significance", false, Runs::Code),
    row("ceiling", false, Runs::Code),
    row("run", false, Runs::SpecFile),
    row("spec-check", false, Runs::Code),
    row("selector-train", false, Runs::Code),
    row("selector-apply", false, Runs::Code),
    row("bench", false, Runs::Code),
    row("resume", false, Runs::Code),
    row("all", false, Runs::Code),
];

/// The table row named `name`.
pub fn lookup(name: &str) -> Option<&'static Command> {
    COMMANDS.iter().find(|c| c.name == name)
}

/// The names of the rows `keep` selects, `|`-separated.
pub fn names(keep: impl Fn(&Command) -> bool) -> String {
    let names: Vec<&str> = COMMANDS
        .iter()
        .filter(|c| keep(c))
        .map(|c| c.name)
        .collect();
    names.join("|")
}

/// The `table7 --variant` ablations besides `paper`: (flag value, spec
/// name suffix, parameter added to every selector token). Seeds are
/// untouched because they derive from the base strategy name, not the
/// LHS plan.
pub const TABLE7_VARIANTS: &[(&str, &str, &str)] = &[
    // AR(p) predictor instead of the LSTM.
    ("ar", "ArPredictor", "predictor=ar:3"),
    // Linear pairwise ranker instead of LambdaMART.
    ("linear", "LinearRanker", "ranker=linear"),
    // Plus the lag-1 autocorrelation feature (the paper's "explore more
    // effective features" future work).
    ("autocorr", "Autocorr", "autocorr=true"),
];

/// The command-line flags that rewrite a spec before it runs.
#[derive(Debug, Clone, Default)]
pub struct SpecOptions {
    /// `table5 --targets a,b,c`: one `target:T` metric column per value.
    pub targets: Option<Vec<f64>>,
    /// `table7 --variant`: a [`TABLE7_VARIANTS`] row (`None`: paper).
    pub variant: Option<&'static (&'static str, &'static str, &'static str)>,
}

impl SpecOptions {
    /// The spec the command `name` runs, parsed from its embedded `json`
    /// and rewritten by these options.
    pub fn spec(&self, name: &str, json: &str) -> Result<ExperimentSpec, Error> {
        let mut spec = ExperimentSpec::from_json(json)?;
        match (name, &self.targets, self.variant) {
            ("table5", Some(targets), _) => {
                spec.metrics = targets.iter().map(|t| format!("target:{t}")).collect();
            }
            ("table7", _, Some((_, suffix, param))) => {
                spec.name = format!("table7_{suffix}");
                spec.title = spec.title.replace("Paper", suffix);
                for entry in spec.groups.iter_mut().flat_map(|g| &mut g.strategies) {
                    entry.strategy = add_selector_param(&entry.strategy, param);
                }
            }
            _ => {}
        }
        Ok(spec)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn embedded_specs_validate_and_flags_rewrite_only_their_command() {
        for variant in TABLE7_VARIANTS {
            let flags = SpecOptions {
                targets: Some(vec![0.6, 0.65]),
                variant: Some(variant),
            };
            for command in COMMANDS {
                let Runs::Spec(_, json) = command.runs else {
                    continue;
                };
                let plain = SpecOptions::default().spec(command.name, json).unwrap();
                let rewritten = flags.spec(command.name, json).unwrap();
                plain.validate().expect("embedded spec validates");
                rewritten.validate().expect("rewritten spec validates");
                let flagged = matches!(command.name, "table5" | "table7");
                assert_eq!(plain != rewritten, flagged, "{}", command.name);
            }
        }
    }

    #[test]
    fn the_table_decides_journaling_and_all() {
        assert_eq!(
            names(Command::journals),
            "fig2|table2|fig3-text|fig3-ner|table5|fig5|table6|table7|noise|imbalance|run"
        );
        assert_eq!(
            names(|c| c.paper),
            "fig2|table2|table3|table4|fig3-text|fig3-ner|table5|fig4|fig5|table6|table7"
        );
    }
}
