//! Property-based exactness: BSSR (under every optimisation configuration)
//! must return exactly the skyline computed by the exhaustive oracle, on
//! arbitrary small road networks, category forests and queries — including
//! queries whose positions share category trees (where the Lemma 5.5
//! shortcuts must disable themselves).

use proptest::prelude::*;
use skysr::category::{CategoryForest, CategoryId, ForestBuilder};
use skysr::core::bssr::{Bssr, BssrConfig, LowerBoundMode, QueuePolicy, WarmSeeds};
use skysr::core::naive::naive_skysr;
use skysr::core::variants::skyband::{naive_skyband, SkybandQuery};
use skysr::core::{PoiTable, PreparedQuery, QueryContext, SkySrQuery, SkylineRoute};
use skysr::graph::{GraphBuilder, VertexId};

/// A random but always-valid test instance.
#[derive(Debug, Clone)]
struct Instance {
    n: usize,
    directed: bool,
    path_weights: Vec<f64>,
    extra_edges: Vec<(usize, usize, f64)>,
    poi_cats: Vec<Option<usize>>,
    start: usize,
    query_cats: Vec<usize>,
}

/// Forest used by all generated instances: two trees with internal nodes
/// and leaves at different depths (8 categories total).
fn forest() -> CategoryForest {
    let mut b = ForestBuilder::new();
    let food = b.add_root("Food");
    let asian = b.add_child(food, "Asian");
    b.add_child(asian, "Sushi");
    b.add_child(food, "Italian");
    let shop = b.add_root("Shop");
    let clothing = b.add_child(shop, "Clothing");
    b.add_child(clothing, "Shoes");
    b.add_child(shop, "Gift");
    b.build()
}

const NUM_CATS: usize = 8;

fn arb_instance() -> impl Strategy<Value = Instance> {
    (4usize..10, any::<bool>())
        .prop_flat_map(|(n, directed)| {
            (
                Just(n),
                Just(directed),
                prop::collection::vec(0.5f64..8.0, n - 1),
                prop::collection::vec((0..n, 0..n, 0.5f64..8.0), 0..10),
                prop::collection::vec(prop::option::of(0..NUM_CATS), n),
                0..n,
                prop::collection::vec(0..NUM_CATS, 1..4),
            )
        })
        .prop_map(|(n, directed, path_weights, extra_edges, poi_cats, start, query_cats)| {
            Instance { n, directed, path_weights, extra_edges, poi_cats, start, query_cats }
        })
}

struct Built {
    graph: skysr::graph::RoadNetwork,
    forest: CategoryForest,
    pois: PoiTable,
    query: SkySrQuery,
}

fn build(inst: &Instance) -> Built {
    let forest = forest();
    let mut g = if inst.directed { GraphBuilder::directed() } else { GraphBuilder::new() };
    let vs: Vec<VertexId> = (0..inst.n).map(|_| g.add_vertex()).collect();
    for (i, &w) in inst.path_weights.iter().enumerate() {
        g.add_edge(vs[i], vs[i + 1], w);
        if inst.directed {
            // Keep directed instances strongly connected with an asymmetric
            // return edge (§6 "Directed graphs").
            g.add_edge(vs[i + 1], vs[i], w * 1.5 + 0.25);
        }
    }
    for &(a, b, w) in &inst.extra_edges {
        g.add_edge(vs[a], vs[b], w);
    }
    let graph = g.build();
    let mut pois = PoiTable::new(inst.n);
    for (i, cat) in inst.poi_cats.iter().enumerate() {
        if let Some(c) = cat {
            pois.add_poi(vs[i], CategoryId(*c as u32));
        }
    }
    pois.finalize(&forest);
    let query =
        SkySrQuery::new(vs[inst.start], inst.query_cats.iter().map(|&c| CategoryId(c as u32)));
    Built { graph, forest, pois, query }
}

/// Score sets (length, semantic) must match as multisets within tolerance.
///
/// A plain sorted zip is too strict here: score-equivalent routes can have
/// representative lengths differing by float noise (~1e-15, different edge
/// summation orders), which flips sort order around exact ties on one side
/// only. Tolerant greedy matching of sorted lists is order-insensitive.
fn assert_same_skyline(got: &[SkylineRoute], want: &[SkylineRoute], label: &str) {
    assert_eq!(got.len(), want.len(), "{label}: {got:?} vs {want:?}");
    let close = |g: &SkylineRoute, w: &SkylineRoute| {
        (g.length.get() - w.length.get()).abs() <= 1e-6 * (1.0 + w.length.get().abs())
            && (g.semantic - w.semantic).abs() <= 1e-9
    };
    let mut unmatched: Vec<&SkylineRoute> = got.iter().collect();
    for w in want {
        let i = unmatched
            .iter()
            .position(|g| close(g, w))
            .unwrap_or_else(|| panic!("{label}: no match for {w:?} in {got:?}"));
        unmatched.swap_remove(i);
    }
}

fn all_configs() -> Vec<(&'static str, BssrConfig)> {
    vec![
        ("default", BssrConfig::default()),
        ("unoptimized", BssrConfig::unoptimized()),
        ("no-init", BssrConfig { use_init_search: false, ..BssrConfig::default() }),
        (
            "distance-queue",
            BssrConfig { queue_policy: QueuePolicy::DistanceBased, ..BssrConfig::default() },
        ),
        ("no-bounds", BssrConfig { lower_bound: LowerBoundMode::Off, ..BssrConfig::default() }),
        (
            "semantic-bounds",
            BssrConfig { lower_bound: LowerBoundMode::Semantic, ..BssrConfig::default() },
        ),
        ("no-cache", BssrConfig { use_cache: false, ..BssrConfig::default() }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn bssr_matches_oracle_under_every_config(inst in arb_instance()) {
        let built = build(&inst);
        let ctx = QueryContext::new(&built.graph, &built.forest, &built.pois);
        let pq = PreparedQuery::prepare(&ctx, &built.query).expect("valid query");
        let oracle = naive_skysr(&ctx, &pq, 5_000_000);
        for (label, cfg) in all_configs() {
            let result = Bssr::with_config(&ctx, cfg).run_prepared(&pq);
            assert_same_skyline(&result.routes, &oracle, label);
        }
    }

    #[test]
    fn warm_started_bssr_matches_oracle(inst in arb_instance()) {
        // Semantic cache reuse (skysr-service): a query warm-started from
        // the skyline of its (k−1)-prefix must return the exact skyline.
        let built = build(&inst);
        if built.query.len() < 2 {
            return; // no proper prefix to reuse
        }
        let ctx = QueryContext::new(&built.graph, &built.forest, &built.pois);
        let pq = PreparedQuery::prepare(&ctx, &built.query).expect("valid query");
        let oracle = naive_skysr(&ctx, &pq, 5_000_000);
        let prefix_query = SkySrQuery::with_positions(
            built.query.start,
            built.query.sequence[..built.query.len() - 1].to_vec(),
        );
        let mut engine = Bssr::new(&ctx);
        let prefix = engine.run(&prefix_query).expect("valid prefix").routes;
        let warm = engine.run_prepared_observed(&pq, WarmSeeds::PrefixOrFull(&prefix), None);
        assert_same_skyline(&warm.routes, &oracle, "warm-started");
    }

    #[test]
    fn skyband_matches_oracle_for_small_k(inst in arb_instance()) {
        let built = build(&inst);
        let ctx = QueryContext::new(&built.graph, &built.forest, &built.pois);
        for k in [1usize, 2, 3] {
            let got = SkybandQuery::new(built.query.clone(), k).run(&ctx).expect("valid");
            let want = naive_skyband(&ctx, &built.query, k, 5_000_000).expect("valid");
            assert_same_skyline(&got.routes, &want, "skyband");
        }
    }

    #[test]
    fn skyline_routes_are_valid_and_pareto(inst in arb_instance()) {
        let built = build(&inst);
        let ctx = QueryContext::new(&built.graph, &built.forest, &built.pois);
        let result = Bssr::new(&ctx).run(&built.query).expect("valid query");
        let k = built.query.len();
        for (i, r) in result.routes.iter().enumerate() {
            // Right size, distinct PoIs, every PoI semantically matches.
            prop_assert_eq!(r.pois.len(), k);
            let mut sorted = r.pois.clone();
            sorted.sort_unstable();
            sorted.dedup();
            prop_assert_eq!(sorted.len(), k);
            // Pairwise non-dominance.
            for (j, other) in result.routes.iter().enumerate() {
                if i != j {
                    prop_assert!(!r.dominates(other), "{:?} dominates {:?}", r, other);
                }
            }
        }
    }
}
