//! Shared experiment plumbing: dataset loading, per-dataset model
//! configuration, and the one reader of the environment knobs
//! (`ST_SCALE`, `ST_EPOCHS`).

use st_data::synth::{generate, SynthConfig};
use st_data::{CityId, CrossingCitySplit, Dataset};
use st_eval::EvalConfig;
use st_transrec_core::ModelConfig;

/// The two evaluation datasets of Sec. 4.1.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DatasetKind {
    /// Foursquare-like: Los Angeles target, four source cities.
    Foursquare,
    /// Yelp-like: Phoenix source, Las Vegas target.
    Yelp,
}

impl DatasetKind {
    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            DatasetKind::Foursquare => "Foursquare",
            DatasetKind::Yelp => "Yelp",
        }
    }

    /// Parses a CLI argument ("foursquare" / "yelp", case-insensitive).
    pub fn parse(arg: &str) -> Option<Self> {
        match arg.to_ascii_lowercase().as_str() {
            "foursquare" | "fsq" => Some(DatasetKind::Foursquare),
            "yelp" => Some(DatasetKind::Yelp),
            _ => None,
        }
    }
}

/// The dataset scale and epoch budget of one experiment run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Settings {
    /// Dataset scale factor in `(0, 1]`; 1.0 is the paper's Table 1 size.
    pub scale: f64,
    /// Training epochs for the neural models.
    pub epochs: usize,
}

impl Settings {
    /// `self` with `ST_SCALE` / `ST_EPOCHS` applied on top, and whether
    /// either was set. The one place the environment is read.
    pub fn with_env(self) -> Result<(Self, bool), String> {
        self.overridden(
            std::env::var("ST_SCALE").ok().as_deref(),
            std::env::var("ST_EPOCHS").ok().as_deref(),
        )
    }

    /// [`Settings::with_env`] on explicit values. A value outside
    /// `(0, 1]` / `>= 1` is an error, not a silent fall-back: the caller
    /// asked for a run the harness cannot do.
    pub fn overridden(
        mut self,
        scale: Option<&str>,
        epochs: Option<&str>,
    ) -> Result<(Self, bool), String> {
        if let Some(text) = scale {
            self.scale = text
                .parse()
                .ok()
                .filter(|&s: &f64| s > 0.0 && s <= 1.0)
                .ok_or_else(|| format!("ST_SCALE must be a number in (0, 1], got {text:?}"))?;
        }
        if let Some(text) = epochs {
            self.epochs = text
                .parse()
                .ok()
                .filter(|&e| e >= 1)
                .ok_or_else(|| format!("ST_EPOCHS must be an integer >= 1, got {text:?}"))?;
        }
        Ok((self, scale.is_some() || epochs.is_some()))
    }
}

/// The synthetic config for a dataset at a given scale.
pub fn dataset_config(kind: DatasetKind, scale: f64) -> SynthConfig {
    let base = match kind {
        DatasetKind::Foursquare => SynthConfig::foursquare_like(),
        DatasetKind::Yelp => SynthConfig::yelp_like(),
    };
    if (scale - 1.0).abs() < 1e-12 {
        base
    } else {
        base.with_scale(scale)
    }
}

/// The shared evaluation protocol (100 negatives, k in {2,...,10}, fixed
/// seed so candidate sets are identical across methods).
pub fn eval_config() -> EvalConfig {
    EvalConfig::default()
}

/// A loaded experiment environment.
pub struct Loaded {
    /// Which dataset.
    pub kind: DatasetKind,
    /// The generated dataset.
    pub dataset: Dataset,
    /// Crossing-city train/test split.
    pub split: CrossingCitySplit,
    /// The paper's model config for this dataset.
    pub model_config: ModelConfig,
}

/// Generates the dataset at `settings.scale` and builds the split; the
/// model config trains for `settings.epochs`.
pub fn load(kind: DatasetKind, settings: Settings) -> Loaded {
    let mut loaded = load_at(kind, settings.scale);
    loaded.model_config.epochs = settings.epochs;
    loaded
}

/// Generates at an explicit scale with the paper's own epoch budget.
pub fn load_at(kind: DatasetKind, scale: f64) -> Loaded {
    let cfg = dataset_config(kind, scale);
    let (dataset, _) = generate(&cfg);
    let target = CityId(cfg.target_city as u16);
    let split = CrossingCitySplit::build(&dataset, target);
    Loaded {
        kind,
        dataset,
        split,
        // The paper's per-dataset neural hyperparameters (Sec. 4.1).
        model_config: match kind {
            DatasetKind::Foursquare => ModelConfig::foursquare(),
            DatasetKind::Yelp => ModelConfig::yelp(),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_kind() {
        assert_eq!(DatasetKind::parse("yelp"), Some(DatasetKind::Yelp));
        assert_eq!(
            DatasetKind::parse("FOURSQUARE"),
            Some(DatasetKind::Foursquare)
        );
        assert_eq!(DatasetKind::parse("netflix"), None);
    }

    #[test]
    fn load_small_scale_builds_split() {
        let loaded = load_at(DatasetKind::Yelp, 0.01);
        assert!(loaded.split.test_users.len() >= 5);
        assert_eq!(loaded.model_config.embedding_dim, 128);
    }

    #[test]
    fn overrides_apply_and_are_reported() {
        let recorded = Settings {
            scale: 0.1,
            epochs: 4,
        };
        assert_eq!(recorded.overridden(None, None), Ok((recorded, false)));
        let (s, set) = recorded.overridden(Some("0.05"), None).unwrap();
        assert_eq!((s.scale, s.epochs, set), (0.05, 4, true));
        let (s, set) = recorded.overridden(None, Some("1")).unwrap();
        assert_eq!((s.scale, s.epochs, set), (0.1, 1, true));
    }

    #[test]
    fn out_of_range_overrides_are_errors() {
        let recorded = Settings {
            scale: 1.0,
            epochs: 4,
        };
        for bad in ["0", "-0.5", "1.5", "nan", "big"] {
            assert!(recorded.overridden(Some(bad), None).is_err(), "{bad}");
        }
        for bad in ["0", "-1", "2.5", ""] {
            assert!(recorded.overridden(None, Some(bad)).is_err(), "{bad}");
        }
    }
}
