//! Order statistics: the helpers every report and `compare` rest on.

use watz_benchmark::stats::{
    fast, geomean, median, percentile, quartiles, sorted, spread, summarize, top_percentile,
};

#[test]
fn median_of_odd_even_and_empty() {
    assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    assert_eq!(median(&[]), 0.0);
    assert_eq!(median(&[7.0]), 7.0);
}

#[test]
fn quartiles_match_python_statistics_quantiles() {
    // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
    let v: Vec<f64> = (1..=10).map(f64::from).collect();
    assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
    // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
    assert_eq!(quartiles(&[16.0, 1.0, 8.0, 2.0, 4.0]), (1.5, 4.0, 12.0));
    // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
    assert_eq!(quartiles(&[10.0, 20.0]), (7.5, 15.0, 22.5));
    assert_eq!(quartiles(&[5.0]), (5.0, 5.0, 5.0));
}

#[test]
fn spread_is_interquartile_distance_over_median() {
    let v: Vec<f64> = (1..=10).map(f64::from).collect();
    assert!((spread(&v) - (8.25 - 2.75) / 5.5).abs() < 1e-12);
    assert_eq!(spread(&[0.0, 0.0, 0.0]), 0.0);
}

#[test]
fn percentile_is_nearest_rank() {
    let v = sorted(&(1..=100).map(f64::from).collect::<Vec<_>>());
    assert_eq!(percentile(&v, 50.0), 50.0);
    assert_eq!(percentile(&v, 99.0), 99.0);
    assert_eq!(percentile(&v, 100.0), 100.0);
    assert_eq!(percentile(&v, 0.0), 1.0);
    assert_eq!(percentile(&[], 50.0), 0.0);
}

#[test]
fn top_percentile_keeps_ten_samples_beyond_it() {
    assert_eq!(top_percentile(19), None);
    assert_eq!(top_percentile(20), Some(50.0));
    assert_eq!(top_percentile(40), Some(75.0));
    assert_eq!(top_percentile(100), Some(90.0));
    assert_eq!(top_percentile(200), Some(95.0));
    assert_eq!(top_percentile(999), Some(95.0));
    assert_eq!(top_percentile(1000), Some(99.0));
    assert_eq!(top_percentile(10_000), Some(99.9));
}

#[test]
fn summary_reports_count_quartiles_and_tail() {
    let v: Vec<f64> = (1..=1000).map(f64::from).collect();
    let s = summarize(&v);
    assert_eq!(s.n, 1000);
    assert_eq!(s.median, 500.5);
    assert_eq!(s.top, Some((99.0, 990.0)));
    assert!(s.q1 < s.median && s.median < s.q3);
    assert_eq!(summarize(&[1.0, 2.0]).top, None);
}

#[test]
fn fast_tail_is_the_fifth_percentile_and_ignores_the_slow_side() {
    let mut v: Vec<f64> = (1..=100).map(f64::from).collect();
    assert_eq!(fast(&v), 5.0);
    // Disturbance only adds time: making the slow half slower moves nothing.
    for x in v.iter_mut().skip(50) {
        *x *= 10.0;
    }
    assert_eq!(fast(&v), 5.0);
    // Below twenty samples it is the minimum.
    assert_eq!(fast(&[9.0, 7.0, 8.0]), 7.0);
    assert_eq!(fast(&[]), 0.0);
}

#[test]
fn geomean_averages_ratios() {
    assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
    assert_eq!(geomean(&[]), 0.0);
}
