//! Table 3 — case study: the top-10 profile words of one crossing-city
//! user, with the top-5 target-city recommendations (and their words)
//! under the full model vs ST-TransRec-2 (no text).

use crate::runner::Loaded;

use st_data::UserId;
use st_transrec_core::{case_study, CaseStudy, STTransRec, Variant};

/// The two-column case study of Table 3.
#[derive(Debug, Clone)]
pub struct Table3 {
    /// The studied user.
    pub(crate) user: u32,
    /// Top-10 source-city profile words.
    pub(crate) profile_words: Vec<String>,
    /// Full-model column: (POI name, top-5 words, is ground truth).
    pub(crate) full_model: Vec<(String, Vec<String>, bool)>,
    /// ST-TransRec-2 column.
    pub(crate) no_text: Vec<(String, Vec<String>, bool)>,
}

crate::json_object_impl!(Table3 {
    user,
    profile_words,
    full_model,
    no_text,
});

/// Picks a test user with a rich profile (most training check-ins), in
/// the spirit of the paper's user #377.
pub(crate) fn pick_user(loaded: &Loaded) -> (usize, UserId) {
    loaded
        .split
        .test_users
        .iter()
        .enumerate()
        .max_by_key(|(_, &u)| loaded.split.train.iter().filter(|c| c.user == u).count())
        .map(|(i, &u)| (i, u))
        .expect("at least one test user")
}

/// Trains the full model and the no-text ablation, then assembles the
/// two-column study for the chosen user.
pub fn run(loaded: &Loaded) -> Table3 {
    let (idx, user) = pick_user(loaded);
    let truth = loaded.split.ground_truth_for(idx);

    let column = |variant: Variant| -> CaseStudy {
        eprintln!("[table3] training {variant:?} model...");
        let config = loaded.model_config.clone().with_variant(variant);
        let mut model = STTransRec::new(&loaded.dataset, &loaded.split, config);
        model.fit(&loaded.dataset);
        case_study(
            &model,
            &loaded.dataset,
            &loaded.split.train,
            user,
            loaded.split.target_city,
            truth,
            5,
            5,
        )
    };
    let full = column(Variant::Full);
    let no_text = column(Variant::NoText);

    let flatten = |cs: &CaseStudy| {
        cs.entries
            .iter()
            .map(|e| (e.name.clone(), e.words.clone(), e.is_ground_truth))
            .collect()
    };
    Table3 {
        user: user.0,
        profile_words: full.profile_words.clone(),
        full_model: flatten(&full),
        no_text: flatten(&no_text),
    }
}

/// Renders the table in the paper's two-column layout.
pub fn render(t: &Table3) -> String {
    let mut out = format!("== Table 3: Case Study for User #{} ==\n", t.user);
    out.push_str(&format!(
        "Top-10 profile words: {}\n\n",
        t.profile_words.join(", ")
    ));
    out.push_str("-- Rank list of ST-TransRec --\n");
    for (name, words, truth) in &t.full_model {
        let mark = if *truth { " [GROUND TRUTH]" } else { "" };
        out.push_str(&format!("  {name}{mark}\n    {}\n", words.join(", ")));
    }
    out.push_str("\n-- Rank list of ST-TransRec-2 (no text) --\n");
    for (name, words, truth) in &t.no_text {
        let mark = if *truth { " [GROUND TRUTH]" } else { "" };
        out.push_str(&format!("  {name}{mark}\n    {}\n", words.join(", ")));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::{load_at, DatasetKind};

    #[test]
    #[ignore = "soak: trains two models, ~6 s in debug; run with --ignored"]
    fn case_study_assembles_both_columns() {
        let mut loaded = load_at(DatasetKind::Yelp, 0.012);
        loaded.model_config = st_transrec_core::ModelConfig::test_small();
        let t = run(&loaded);
        assert_eq!(t.full_model.len(), 5);
        assert_eq!(t.no_text.len(), 5);
        assert!(!t.profile_words.is_empty());
        let text = render(&t);
        assert!(text.contains("ST-TransRec-2"));
    }

    #[test]
    fn picks_the_richest_test_user() {
        let loaded = load_at(DatasetKind::Yelp, 0.012);
        let (_, user) = pick_user(&loaded);
        let count = |u: UserId| loaded.split.train.iter().filter(|c| c.user == u).count();
        let max = loaded
            .split
            .test_users
            .iter()
            .map(|&u| count(u))
            .max()
            .unwrap();
        assert_eq!(count(user), max);
    }
}
