//! Head-to-head: fits ST-TransRec and all eight baselines of the paper
//! on one small dataset and prints the Fig. 3/4-style comparison. Each
//! baseline fits at the budget the paper record uses; the 3 epochs
//! below shorten only ST-TransRec and PACE.
//!
//! Run with: `cargo run --release --example compare_baselines`

use st_transrec::baselines::{fit_method, Method};
use st_transrec::prelude::*;

fn main() {
    let config = synth::SynthConfig::yelp_like().with_scale(0.03);
    let (dataset, _) = synth::generate(&config);
    let target = CityId(config.target_city as u16);
    let split = CrossingCitySplit::build(&dataset, target);
    let eval_cfg = EvalConfig::default();

    let mut neural = ModelConfig::yelp();
    neural.epochs = 3;

    let mut rows: Vec<(String, MetricReport)> = Vec::new();
    for method in Method::ALL {
        eprintln!("fitting {}...", method.name());
        let scorer = fit_method(method, &dataset, &split, &neural);
        let report = evaluate(&*scorer, &dataset, &split, &eval_cfg);
        rows.push((method.name().to_string(), report));
    }
    eprintln!("fitting ST-TransRec...");
    let mut model = STTransRec::new(&dataset, &split, neural);
    model.fit(&dataset);
    rows.push((
        "ST-TransRec".to_string(),
        evaluate(&model, &dataset, &split, &eval_cfg),
    ));

    println!(
        "\n{:>14}{:>10}{:>10}{:>10}{:>10}",
        "method", "Recall", "Prec", "NDCG", "MAP"
    );
    println!(
        "{:>14}{:>10}{:>10}{:>10}{:>10}",
        "", "@10", "@10", "@10", "@10"
    );
    for (name, report) in &rows {
        println!(
            "{name:>14}{:>10.4}{:>10.4}{:>10.4}{:>10.4}",
            report.get(Metric::Recall, 10),
            report.get(Metric::Precision, 10),
            report.get(Metric::Ndcg, 10),
            report.get(Metric::Map, 10),
        );
    }
}
