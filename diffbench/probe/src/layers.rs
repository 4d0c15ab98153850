//! In-process traced passes. Each pass recomposes a workload from the
//! layers' public functions — `corpus::generate`, `javalang`,
//! `analysis`, `usagegraph`, `diffcode::apply_filters`, `cluster`,
//! `rules`, `diffcode::MiningCache` — and times every call from here,
//! so no span is added inside the program. The same pass also runs
//! the program's own untraced entry points on the same inputs, which
//! gives the tracing overhead and the thread scaling.

use crate::load::{Plan, Req};
use crate::stats::{wall, Layer, Metrics};
use analysis::{try_analyze_counted, ApiModel, Usages, TARGET_CLASSES};
use corpus::{Corpus, GeneratorConfig};
use diffcode::{
    apply_filters, change_fingerprint, mine_parallel, mine_parallel_cached, CachedLookup,
    ChangeMeta, ChangeOutcome, DiffCode, MinedUsageChange, MiningCache, PipelineLimits,
};
use obs::MetricsRegistry;
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::path::Path;
use std::rc::Rc;
use std::time::{Duration, Instant};
use usagegraph::{
    diff_dags, pair_dags, try_dags_for_class, DagLimits, UsageChange, UsageDag, DEFAULT_MAX_DEPTH,
};

/// Every per-layer metric a traced run reports, whatever the workload.
/// A layer the workload leaves idle reports 0.
pub const PER_LAYER: [&str; 60] = [
    "corpus.generate_s",
    "corpus.code_changes",
    "javalang.parse_calls",
    "javalang.parse_busy_s",
    "javalang.parse_p50_us",
    "javalang.parse_p99_us",
    "javalang.mb_per_s",
    "analysis.calls",
    "analysis.busy_s",
    "analysis.p50_us",
    "analysis.p99_us",
    "analysis.steps",
    "mine.memo_hit_ratio",
    "mine.thread_scaling",
    "mine.loop_self_s",
    "usagegraph.dags",
    "usagegraph.pairs",
    "usagegraph.usage_changes",
    "usagegraph.busy_s",
    "filter.in",
    "filter.after_fsame",
    "filter.after_fadd",
    "filter.after_frem",
    "filter.kept",
    "filter.keep_ratio",
    "filter.busy_s",
    "cluster.cells",
    "cluster.busy_s",
    "elicit.clusters",
    "elicit.busy_s",
    "rules.files",
    "rules.violations",
    "rules.busy_s",
    "rules.p50_us",
    "cache.open_s",
    "cache.lookups",
    "cache.hit_ratio",
    "cache.get_busy_s",
    "cache.flush_s",
    "cache.file_mb",
    "teardown.drop_s",
    "serve.server_p50_ms.mine",
    "serve.server_p99_ms.mine",
    "serve.server_p50_ms.check",
    "serve.server_p99_ms.check",
    "serve.client_p50_ms",
    "serve.client_p90_ms",
    "serve.client_p99_ms",
    "serve.client_samples",
    "serve.accept_wait_p50_ms",
    "serve.mine_compute_us",
    "serve.check_compute_us",
    "serve.cache_hit_ratio",
    "serve.flushed_entries",
    "serve.shed",
    "traced.wall_s",
    "traced.untraced_wall_s",
    "traced.unattributed_share",
    "obs.trace_overhead_ratio",
    "traced.passes",
];

/// A metrics map with every per-layer name present and zero.
pub fn zeroed() -> Metrics {
    PER_LAYER.iter().map(|k| ((*k).to_owned(), 0.0)).collect()
}

fn generate(seed: u64, projects: usize) -> Corpus {
    corpus::generate(&GeneratorConfig::small(projects, seed))
}

type Tuples = Vec<(String, UsageDag, UsageDag, UsageChange)>;

/// The mining front end, composed the way `DiffCode` composes it:
/// content memo → `javalang` parse → `analysis` → `usagegraph` DAG
/// build, pairing and diff for each target class, under the default
/// budgets.
pub struct FrontEnd {
    api: ApiModel,
    limits: PipelineLimits,
    dag_limits: DagLimits,
    memo: HashMap<u64, Rc<Usages>>,
    sources: u64,
    memo_hits: u64,
    bytes: u64,
    steps: u64,
    dags: u64,
    pairs: u64,
    usage_changes: u64,
    parse: Layer,
    analysis: Layer,
    graph: Layer,
}

impl FrontEnd {
    pub fn new() -> Self {
        let limits = PipelineLimits::DEFAULT;
        FrontEnd {
            api: ApiModel::standard(),
            dag_limits: DagLimits {
                max_depth: DEFAULT_MAX_DEPTH,
                ..limits.dag
            },
            limits,
            memo: HashMap::new(),
            sources: 0,
            memo_hits: 0,
            bytes: 0,
            steps: 0,
            dags: 0,
            pairs: 0,
            usage_changes: 0,
            parse: Layer::default(),
            analysis: Layer::default(),
            graph: Layer::default(),
        }
    }

    fn side(&mut self, source: &str) -> Option<Rc<Usages>> {
        self.sources += 1;
        let mut h = DefaultHasher::new();
        source.hash(&mut h);
        let key = h.finish();
        if let Some(hit) = self.memo.get(&key) {
            self.memo_hits += 1;
            return Some(Rc::clone(hit));
        }
        self.bytes += source.len() as u64;
        let parse_limits = self.limits.parse;
        let unit = self
            .parse
            .time(|| javalang::parse_snippet_with_limits(source, parse_limits))
            .ok()?;
        let (usages, steps) = self
            .analysis
            .time(|| try_analyze_counted(&unit, &self.api, &self.limits.analysis))
            .ok()?;
        self.steps += steps;
        let usages = Rc::new(usages);
        self.memo.insert(key, Rc::clone(&usages));
        Some(usages)
    }

    /// One code change through the front end; `None` is a quarantined
    /// change (a lex, parse, analysis or DAG budget failure).
    pub fn change(&mut self, old: &str, new: &str) -> Option<Tuples> {
        let old = self.side(old)?;
        let new = self.side(new)?;
        let limits = self.dag_limits;
        let start = Instant::now();
        let mut tuples = Tuples::new();
        let mut ok = true;
        for class in TARGET_CLASSES {
            let dags = try_dags_for_class(&old, class, &limits)
                .and_then(|o| Ok((o, try_dags_for_class(&new, class, &limits)?)));
            let Ok((old_dags, new_dags)) = dags else {
                ok = false;
                break;
            };
            self.dags += (old_dags.len() + new_dags.len()) as u64;
            if old_dags.is_empty() && new_dags.is_empty() {
                continue;
            }
            for (a, b) in pair_dags(old_dags, new_dags, class) {
                self.pairs += 1;
                let change = diff_dags(&a, &b);
                tuples.push((class.to_owned(), a, b, change));
            }
        }
        self.graph.add(start.elapsed());
        if ok {
            self.usage_changes += tuples.len() as u64;
        }
        ok.then_some(tuples)
    }

    fn busy(&self) -> Duration {
        self.parse.busy + self.analysis.busy + self.graph.busy
    }

    fn report(&self, m: &mut Metrics) {
        m.insert("javalang.parse_calls".into(), self.parse.calls as f64);
        m.insert("javalang.parse_busy_s".into(), self.parse.busy_s());
        m.insert("javalang.parse_p50_us".into(), self.parse.quantile_us(0.50));
        m.insert("javalang.parse_p99_us".into(), self.parse.quantile_us(0.99));
        m.insert(
            "javalang.mb_per_s".into(),
            self.bytes as f64 / 1e6 / self.parse.busy_s(),
        );
        m.insert("analysis.calls".into(), self.analysis.calls as f64);
        m.insert("analysis.busy_s".into(), self.analysis.busy_s());
        m.insert("analysis.p50_us".into(), self.analysis.quantile_us(0.50));
        m.insert("analysis.p99_us".into(), self.analysis.quantile_us(0.99));
        m.insert("analysis.steps".into(), self.steps as f64);
        m.insert(
            "mine.memo_hit_ratio".into(),
            self.memo_hits as f64 / self.sources as f64,
        );
        m.insert("usagegraph.dags".into(), self.dags as f64);
        m.insert("usagegraph.pairs".into(), self.pairs as f64);
        m.insert("usagegraph.usage_changes".into(), self.usage_changes as f64);
        m.insert("usagegraph.busy_s".into(), self.graph.busy_s());
    }
}

fn meta(change: &corpus::CodeChange<'_>) -> ChangeMeta {
    ChangeMeta {
        project: change.project.full_name(),
        commit: change.commit.id.clone(),
        author: change.commit.author.clone(),
        message: change.commit.message.clone(),
        path: change.path.to_owned(),
        fingerprint: change_fingerprint(change.old, change.new),
    }
}

fn push_tuples(out: &mut Vec<MinedUsageChange>, meta: ChangeMeta, tuples: Tuples) {
    for (class, old_dag, new_dag, change) in tuples {
        out.push(MinedUsageChange {
            meta: meta.clone(),
            class,
            old_dag,
            new_dag,
            change,
        });
    }
}

/// Closes a pass: its traced wall-clock, the share of it no layer span
/// covered, and the ratio to the program's untraced run of the same
/// work.
fn account(m: &mut Metrics, wall_s: f64, attributed_s: f64, untraced_s: f64) {
    m.insert("traced.wall_s".into(), wall_s);
    m.insert("traced.untraced_wall_s".into(), untraced_s);
    m.insert(
        "traced.unattributed_share".into(),
        (1.0 - attributed_s / wall_s).max(0.0),
    );
    m.insert("obs.trace_overhead_ratio".into(), wall_s / untraced_s);
}

/// `mine_cold`: generate → mine → filter → cluster → elicit → teardown.
/// Also returns the funnel counts the `diffcode metrics` output must match.
pub fn cold_pass(seed: u64, projects: usize, untraced: bool) -> (Metrics, Metrics) {
    let mut m = zeroed();
    let (gen_s, corpus) = wall(|| generate(seed, projects));

    // Untraced: `diffcode metrics` itself at one thread (the base of the
    // tracing overhead), and its mining stage at one and two threads.
    let (mut untraced_s, mut scaling) = (0.0, 0.0);
    if untraced {
        untraced_s = wall(|| diffcode::cli::run_metrics(seed, projects, 1)).0;
        let (one_s, result) = wall(|| mine_parallel(&corpus, &[], 1));
        drop(result);
        let (two_s, result) = wall(|| mine_parallel(&corpus, &[], 2));
        drop(result);
        scaling = one_s / two_s;
    }

    let traced_start = Instant::now();
    let mut fe = FrontEnd::new();
    let (mut code_changes, mut mined, mut skipped) = (0u64, 0u64, 0u64);
    let mut changes = Vec::new();
    for change in corpus.code_changes() {
        code_changes += 1;
        match fe.change(change.old, change.new) {
            Some(tuples) => {
                mined += 1;
                push_tuples(&mut changes, meta(&change), tuples);
            }
            None => skipped += 1,
        }
    }
    let loop_s = traced_start.elapsed().as_secs_f64();
    let mut filter = Layer::default();
    // Filtering a copy and dropping the mining result in teardown is
    // what `diffcode metrics` does.
    let (kept, fstats) = filter.time(|| apply_filters(changes.clone()));
    let (mut cluster, mut elicit) = (Layer::default(), Layer::default());
    let mut clusters = 0usize;
    if kept.len() >= 2 {
        let usage: Vec<UsageChange> = kept.iter().map(|c| c.change.clone()).collect();
        let (dendrogram, matrix) = cluster.time(|| cluster::cluster_usage_changes_matrix(&usage));
        let suggested = elicit.time(|| {
            let (_, members, _) = dendrogram.best_cut(&matrix, usage.len());
            members
                .iter()
                .map(|group| rules::SuggestedRule::from_change(&usage[group[0]]))
                .collect::<Vec<_>>()
        });
        clusters = suggested.len();
    }
    let kept_n = kept.len();
    let mut teardown = Layer::default();
    teardown.time(|| drop((changes, kept, fe.memo.drain().count(), corpus)));
    let wall_s = gen_s + traced_start.elapsed().as_secs_f64();

    fe.report(&mut m);
    m.insert("corpus.generate_s".into(), gen_s);
    m.insert("corpus.code_changes".into(), code_changes as f64);
    m.insert("mine.thread_scaling".into(), scaling);
    m.insert("mine.loop_self_s".into(), loop_s - fe.busy().as_secs_f64());
    m.insert("filter.in".into(), fstats.total as f64);
    m.insert("filter.after_fsame".into(), fstats.after_fsame as f64);
    m.insert("filter.after_fadd".into(), fstats.after_fadd as f64);
    m.insert("filter.after_frem".into(), fstats.after_frem as f64);
    m.insert("filter.kept".into(), fstats.after_fdup as f64);
    m.insert(
        "filter.keep_ratio".into(),
        fstats.after_fdup as f64 / fstats.total as f64,
    );
    m.insert("filter.busy_s".into(), filter.busy_s());
    m.insert("cluster.cells".into(), cluster::pair_count(kept_n) as f64);
    m.insert("cluster.busy_s".into(), cluster.busy_s());
    m.insert("elicit.clusters".into(), clusters as f64);
    m.insert("elicit.busy_s".into(), elicit.busy_s());
    m.insert("teardown.drop_s".into(), teardown.busy_s());
    let attributed =
        gen_s + loop_s + filter.busy_s() + cluster.busy_s() + elicit.busy_s() + teardown.busy_s();
    account(&mut m, wall_s, attributed, untraced_s);

    let funnel = Metrics::from([
        ("code_changes".to_owned(), code_changes as f64),
        ("mined".to_owned(), mined as f64),
        ("skipped".to_owned(), skipped as f64),
        ("usage_changes".to_owned(), fstats.total as f64),
        ("after_fsame".to_owned(), fstats.after_fsame as f64),
        ("after_fadd".to_owned(), fstats.after_fadd as f64),
        ("after_frem".to_owned(), fstats.after_frem as f64),
        ("kept".to_owned(), fstats.after_fdup as f64),
        ("clusters".to_owned(), clusters as f64),
    ]);
    (m, funnel)
}

fn open_cache(dir: &Path) -> MiningCache {
    MiningCache::open(dir, &[], &PipelineLimits::DEFAULT, DEFAULT_MAX_DEPTH)
        .unwrap_or_else(|e| panic!("opening cache at {}: {e}", dir.display()))
}

fn cache_file_mb(cache: &MiningCache) -> f64 {
    cache.store().stats().file_bytes as f64 / 1e6
}

/// `mine_warm`: prime a fresh cache in-process (its flush is the
/// set-up cost), then replay every change from it: open → key + get per
/// change → fold the cached outcomes → teardown. Also returns the hit
/// and change counts the output check needs.
pub fn warm_pass(seed: u64, projects: usize, dir: &Path) -> (Metrics, Metrics) {
    let mut m = zeroed();
    let (gen_s, corpus) = wall(|| generate(seed, projects));

    let mut primed = open_cache(dir);
    drop(mine_parallel_cached(
        &corpus,
        &[],
        2,
        &mut MetricsRegistry::new(),
        Some(&mut primed),
    ));
    let (flush_s, _) = wall(|| primed.flush().expect("flushing the primed cache"));
    drop(primed);

    // Untraced: `diffcode mine --cache-dir` itself at one thread (the
    // base of the tracing overhead), and its cached mining stage at one
    // and two threads.
    let (untraced_s, run) = wall(|| diffcode::cli::run_mine(seed, projects, 1, Some(dir)));
    run.expect("untraced warm re-mine");
    let mut cache = open_cache(dir);
    let mut mine = |threads| {
        wall(|| {
            mine_parallel_cached(
                &corpus,
                &[],
                threads,
                &mut MetricsRegistry::new(),
                Some(&mut cache),
            )
        })
        .0
    };
    let scaling = mine(1) / mine(2);
    drop(cache);

    let traced_start = Instant::now();
    let (open_s, cache) = wall(|| open_cache(dir));
    let loop_start = Instant::now();
    let view = cache.view();
    let mut get = Layer::default();
    let (mut code_changes, mut hits, mut mined) = (0u64, 0u64, 0u64);
    let mut changes = Vec::new();
    for change in corpus.code_changes() {
        code_changes += 1;
        let lookup = get.time(|| view.get(view.change_key(change.old, change.new)));
        if let CachedLookup::Hit(outcome) = lookup {
            hits += 1;
            if let ChangeOutcome::Mined(tuples) = outcome {
                mined += 1;
                push_tuples(&mut changes, meta(&change), tuples);
            }
        }
    }
    drop(view);
    let loop_s = loop_start.elapsed().as_secs_f64();
    let file_mb = cache_file_mb(&cache);
    let mut teardown = Layer::default();
    teardown.time(|| drop((changes, cache, corpus)));
    let wall_s = gen_s + traced_start.elapsed().as_secs_f64();

    m.insert("corpus.generate_s".into(), gen_s);
    m.insert("corpus.code_changes".into(), code_changes as f64);
    m.insert("mine.thread_scaling".into(), scaling);
    m.insert("mine.loop_self_s".into(), loop_s - get.busy_s());
    m.insert("cache.open_s".into(), open_s);
    m.insert("cache.lookups".into(), get.calls as f64);
    m.insert("cache.hit_ratio".into(), hits as f64 / get.calls as f64);
    m.insert("cache.get_busy_s".into(), get.busy_s());
    m.insert("cache.flush_s".into(), flush_s);
    m.insert("cache.file_mb".into(), file_mb);
    m.insert("teardown.drop_s".into(), teardown.busy_s());
    account(
        &mut m,
        wall_s,
        gen_s + open_s + loop_s + teardown.busy_s(),
        untraced_s,
    );
    let counts = Metrics::from([
        ("code_changes".to_owned(), code_changes as f64),
        ("hits".to_owned(), hits as f64),
        ("mined".to_owned(), mined as f64),
    ]);
    (m, counts)
}

/// The in-process twin of `serve_mixed`: the first `count` requests of
/// the same plan, replayed through the layers a server worker calls —
/// cache look-aside, the front end on a miss, append + flush per
/// `/mine`, `rules` via `render_check` per `/check`. `untraced_dir` and
/// `traced_dir` are two copies of the primed cache, so both replays
/// see the same misses.
pub fn serve_pass(
    seed: u64,
    projects: usize,
    count: usize,
    untraced_dir: &Path,
    traced_dir: &Path,
) -> Metrics {
    let mut m = zeroed();
    let (gen_s, primed) = wall(|| generate(seed, projects));
    let plan = Plan::new(seed, projects, primed);
    let reqs: Vec<Req> = plan.requests().take(count).collect();

    // Untraced: exactly the server's handler calls.
    let untraced_start = Instant::now();
    let mut cache = open_cache(untraced_dir);
    let mut dc = DiffCode::new();
    let (mut mine_compute, mut check_compute) = (Layer::default(), Layer::default());
    for req in &reqs {
        match *req {
            Req::Primed(i) | Req::Novel(i) => {
                let (old, new) = plan.pair(req, i);
                mine_compute.time(|| {
                    let (outcome, log) = {
                        let mut view = cache.view();
                        let (outcome, _) = dc.process_pair_cached(old, new, &[], Some(&mut view));
                        (outcome, view.into_log())
                    };
                    cache.absorb(log);
                    cache.flush().expect("flushing the replay cache");
                    outcome
                });
            }
            Req::Check(p) => {
                let files = plan.head_files(p);
                check_compute
                    .time(|| diffcode::cli::render_check(&files, rules::ProjectContext::plain()));
            }
        }
    }
    drop((dc, cache));
    let untraced_s = untraced_start.elapsed().as_secs_f64();

    let traced_start = Instant::now();
    let (open_s, mut cache) = wall(|| open_cache(traced_dir));
    let loop_start = Instant::now();
    let mut fe = FrontEnd::new();
    let (mut get, mut flush, mut rules_layer) =
        (Layer::default(), Layer::default(), Layer::default());
    let (mut hits, mut files_checked, mut violations) = (0u64, 0u64, 0u64);
    for req in &reqs {
        match *req {
            Req::Primed(i) | Req::Novel(i) => {
                let (old, new) = plan.pair(req, i);
                let log = {
                    let mut view = cache.view();
                    let key = view.change_key(old, new);
                    if let CachedLookup::Hit(_) = get.time(|| view.get(key)) {
                        hits += 1;
                    } else if let Some(tuples) = fe.change(old, new) {
                        // Generated inputs never quarantine; the output
                        // checks on the server's answers cover that.
                        let outcome = ChangeOutcome::Mined(tuples);
                        flush.time(|| view.record(key, &outcome));
                    }
                    view.into_log()
                };
                flush.time(|| {
                    cache.absorb(log);
                    cache.flush().expect("flushing the replay cache")
                });
            }
            Req::Check(p) => {
                let files = plan.head_files(p);
                files_checked += files.len() as u64;
                let (_, violated) = rules_layer
                    .time(|| diffcode::cli::render_check(&files, rules::ProjectContext::plain()));
                violations += violated as u64;
            }
        }
    }
    let loop_s = loop_start.elapsed().as_secs_f64();
    let file_mb = cache_file_mb(&cache);
    let mut teardown = Layer::default();
    teardown.time(|| drop((cache, fe.memo.drain().count())));
    // The replay's wall-clock: the inputs are the client's, not a layer's.
    let wall_s = traced_start.elapsed().as_secs_f64();

    fe.report(&mut m);
    m.insert("corpus.generate_s".into(), gen_s);
    m.insert("corpus.code_changes".into(), plan.primed_changes() as f64);
    m.insert(
        "mine.loop_self_s".into(),
        loop_s - fe.busy().as_secs_f64() - get.busy_s() - flush.busy_s() - rules_layer.busy_s(),
    );
    m.insert("rules.files".into(), files_checked as f64);
    m.insert("rules.violations".into(), violations as f64);
    m.insert("rules.busy_s".into(), rules_layer.busy_s());
    m.insert("rules.p50_us".into(), rules_layer.quantile_us(0.50));
    m.insert("cache.open_s".into(), open_s);
    m.insert("cache.lookups".into(), get.calls as f64);
    m.insert("cache.hit_ratio".into(), hits as f64 / get.calls as f64);
    m.insert("cache.get_busy_s".into(), get.busy_s());
    m.insert("cache.flush_s".into(), flush.busy_s());
    m.insert("cache.file_mb".into(), file_mb);
    m.insert("teardown.drop_s".into(), teardown.busy_s());
    m.insert(
        "serve.mine_compute_us".into(),
        mine_compute.quantile_us(0.50),
    );
    m.insert(
        "serve.check_compute_us".into(),
        check_compute.quantile_us(0.50),
    );
    account(
        &mut m,
        wall_s,
        open_s + loop_s + teardown.busy_s(),
        untraced_s,
    );
    m.insert("traced.passes".into(), 1.0);
    m
}
