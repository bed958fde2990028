//! Unified one-call engines over the three data models.
//!
//! Every engine answers the same shape of request: a [`SearchRequest`]
//! (query string, `k`, an execution [`Budget`], a [`TraceLevel`], and
//! per-model knobs) goes in, a [`SearchResponse`] comes out — ranked hits,
//! the [`QueryStats`] observability record (per-phase timings, operator
//! counters, cache counters), a typed [`TruncationReason`] when the budget
//! cut the query short (so callers can tell a deadline from a candidate
//! cap), and a structured [`QueryTrace`] when the request asked for one.
//!
//! Engines optionally carry a shared [`MetricsRegistry`]
//! (`with_registry`): every query then also folds its stats into the
//! fleet-wide counters and latency histograms under
//! `engine × algorithm` labels — see [`kwdb_obs`].
//!
//! * [`RelationalEngine::execute`] — DISCOVER/SPARK candidate-network
//!   search, with a per-engine CN plan cache keyed by schema fingerprint,
//!   keyword term set, and generator configuration.
//! * [`GraphEngine::execute`] — DPBF / BANKS / BLINKS on a data graph; the
//!   BLINKS node→keyword index is built once per engine and reused.
//! * [`XmlEngine::execute`] — SLCA with XBridge-style proximity ranking.
//!
//! # Threading model
//!
//! Engines **own** their data behind an [`Arc`] (`Arc<Database>`,
//! `Arc<DataGraph>`, `Arc<(XmlTree, XmlIndex)>`), so every engine is
//! `'static`, `Send + Sync`, and can be stored in a long-lived registry and
//! queried from many threads at once — `execute` takes `&self` and all
//! per-query state (counters, heaps, cursors) lives on the query's own
//! stack. Shared mutable state is read-mostly and lock-guarded: the
//! relational engine's generational state (database handle + corpus
//! statistics), its CN plan cache, and the graph engine's generation-tagged
//! BLINKS index all live behind `RwLock`s.
//!
//! # Generations and mutation
//!
//! Mutable engines implement [`MutableEngine`]: `ingest`/`delete` apply a
//! change *and* maintain the index incrementally (realtime segment,
//! tombstones, corpus statistics), `commit` seals the realtime segment into
//! a compressed sealed segment. Every successful mutation bumps a
//! monotonic **generation counter** which keys the CN plan cache and the
//! flight-recorder records, so cached plans and diagnostics can never
//! silently describe an older database. A query holds the engine state's
//! read lock end to end and therefore always sees one consistent
//! generation; mutations copy-on-write when the data is shared
//! ([`Arc::make_mut`]), so handles returned earlier keep their snapshot.
//!
//! The [`Engine`] trait erases the per-model hit types into the [`Hit`]
//! enum so heterogeneous engines can live behind `Arc<dyn Engine>` in one
//! [`crate::dispatch::Catalog`] and be fanned out over threads by
//! [`crate::dispatch::Dispatcher`].
//!
//! The per-paradigm crates (`kwdb_graphsearch`, `kwdb_relsearch`,
//! `kwdb_xmlsearch`) stay borrow-based — the zero-copy escape hatch when
//! you hold the data on the stack and don't need to share the engine.

use kwdb_common::index::{Layout, SegmentCounts};
use kwdb_common::text::parse_query;
use kwdb_common::{
    Budget, CacheConfig, FacetCounts, FacetSpec, Looked, QueryStats, Result, ScratchPool,
    ShardedCache, Stopwatch, TruncationReason, Value,
};
use kwdb_explore::summary::{object_summary, render_summary};
use kwdb_graph::{DataGraph, NodeId};
use kwdb_graphsearch::{blinks::Blinks, AnswerTree, BanksI, Dpbf};
use kwdb_obs::{
    families, record_facets, record_generation, record_index_stats, record_query, MetricsRegistry,
    QueryRecord, QueryTrace, TraceBuilder, TraceLevel,
};
use kwdb_qclean::segment::{clean_query, ValuePhraseModel};
use kwdb_qclean::SpellCorrector;
use kwdb_rank::CorpusStats;
use kwdb_relational::{Database, ExecStats, Row, TupleId};
use kwdb_relsearch::cn::{CandidateNetwork, CnGenConfig, CnGenerator, MaskOracle};
use kwdb_relsearch::facets::{resolve_facets, resolve_refinements, FacetAccum, FacetRequest};
use kwdb_relsearch::pexec::{parallel_topk_faceted, EvalScratch};
use kwdb_relsearch::spark::skyline_sweep_budgeted;
use kwdb_relsearch::topk::{global_pipeline_faceted, CnExecOutcome, TopKQuery};
use kwdb_relsearch::tupleset::TermCache;
use kwdb_relsearch::{corpus_stats, Refinement, ResultScorer, TupleSets};
use kwdb_xml::{XmlIndex, XmlTree};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock, RwLock};

/// A uniform search request accepted by all three engines.
///
/// Built fluently; every field has a sensible default:
///
/// ```
/// use kwdb::engine::SearchRequest;
/// use kwdb::common::Budget;
/// use std::time::Duration;
///
/// let req = SearchRequest::new("widom xml")
///     .k(5)
///     .budget(Budget::unlimited().with_timeout(Duration::from_millis(50)));
/// assert_eq!(req.query(), "widom xml");
/// ```
#[derive(Debug, Clone)]
#[non_exhaustive]
pub struct SearchRequest {
    query: String,
    k: usize,
    budget: Budget,
    scoring: Option<Scoring>,
    semantics: Option<GraphSemantics>,
    trace: TraceLevel,
    facets: Vec<FacetSpec>,
    refinements: Vec<Refinement>,
    summaries: usize,
    use_cache: bool,
}

impl SearchRequest {
    /// A request for `query` with `k = 10`, an unlimited budget, tracing
    /// off, no facets or refinements, and the engine's default
    /// scoring/semantics.
    pub fn new(query: impl Into<String>) -> Self {
        SearchRequest {
            query: query.into(),
            k: 10,
            budget: Budget::unlimited(),
            scoring: None,
            semantics: None,
            trace: TraceLevel::Off,
            facets: Vec::new(),
            refinements: Vec::new(),
            summaries: 0,
            use_cache: true,
        }
    }

    /// Number of hits to return.
    pub fn k(mut self, k: usize) -> Self {
        self.k = k;
        self
    }

    /// Execution budget (deadline and/or candidate cap).
    pub fn budget(mut self, budget: Budget) -> Self {
        self.budget = budget;
        self
    }

    /// Override the relational scoring model (default: the engine's
    /// configured [`Scoring`]).
    pub fn scoring(mut self, scoring: Scoring) -> Self {
        self.scoring = Some(scoring);
        self
    }

    /// Override the graph answer semantics (default:
    /// [`GraphSemantics::Banks`]).
    pub fn semantics(mut self, semantics: GraphSemantics) -> Self {
        self.semantics = Some(semantics);
        self
    }

    /// Ask for a structured [`QueryTrace`] on the response. The default
    /// [`TraceLevel::Off`] records nothing and costs nothing.
    pub fn trace(mut self, level: TraceLevel) -> Self {
        self.trace = level;
        self
    }

    /// Add one facet to count over the result multiset (relational engine;
    /// graph/XML engines ignore facets). Attributes are `"table.column"`;
    /// an unknown attribute fails the whole request with a typed error.
    pub fn facet(mut self, spec: FacetSpec) -> Self {
        self.facets.push(spec);
        self
    }

    /// Replace the full facet list (see [`facet`](Self::facet)).
    pub fn facets(mut self, specs: Vec<FacetSpec>) -> Self {
        self.facets = specs;
        self
    }

    /// Drill down: keep only results where some tuple of the refined table
    /// matches. Refinements compose as AND and are applied *before* ranking
    /// and facet counting — and they are deliberately not part of the CN
    /// plan-cache key, so a drill-down of a cached query replans nothing.
    pub fn refine(mut self, refinement: Refinement) -> Self {
        self.refinements.push(refinement);
        self
    }

    /// Attach a size-`l` object summary to every relational hit: the hit's
    /// tuples plus breadth-first FK-neighborhood context, `l` tuples total
    /// (`0`, the default, disables summaries).
    pub fn summaries(mut self, l: usize) -> Self {
        self.summaries = l;
        self
    }

    pub fn query(&self) -> &str {
        &self.query
    }

    pub fn k_value(&self) -> usize {
        self.k
    }

    pub fn budget_value(&self) -> &Budget {
        &self.budget
    }

    pub fn trace_level(&self) -> TraceLevel {
        self.trace
    }

    pub fn facet_specs(&self) -> &[FacetSpec] {
        &self.facets
    }

    pub fn refinement_list(&self) -> &[Refinement] {
        &self.refinements
    }

    /// The requested per-hit summary size (`0` = summaries off).
    pub fn summary_size(&self) -> usize {
        self.summaries
    }

    /// Opt this one request in or out of the engines' result caches
    /// (default `true`). A request with caching off neither reads nor
    /// writes the cache — its stats report `result_cache` 0/0, exactly
    /// like a query against an engine whose cache is disabled.
    pub fn caching(mut self, on: bool) -> Self {
        self.use_cache = on;
        self
    }

    /// Whether this request participates in the engines' result caches.
    pub fn caching_enabled(&self) -> bool {
        self.use_cache
    }
}

/// The uniform response: ranked hits plus the execution record.
///
/// `#[non_exhaustive]`: construct one via an engine's `execute` (or
/// [`SearchResponse::from_hits`] in tests/adapters) so response fields can
/// grow without breaking downstream code.
#[derive(Debug, Clone)]
#[non_exhaustive]
pub struct SearchResponse<H> {
    /// Ranked hits, best first. Sorted even when truncated.
    pub hits: Vec<H>,
    /// Per-phase timings, operator counters, candidate and cache counters.
    pub stats: QueryStats,
    /// Why the budget cut the query short — `None` when it ran to
    /// completion, otherwise `hits` is best-so-far.
    pub truncation: Option<TruncationReason>,
    /// The structured trace, when the request asked for one
    /// ([`SearchRequest::trace`]).
    pub trace: Option<QueryTrace>,
    /// One [`FacetCounts`] per requested facet, in request order — empty
    /// when the request carried no facets (or the engine has no facet
    /// support, i.e. graph/XML).
    pub facets: Vec<FacetCounts>,
    /// Whether `facets` covers the *full* result multiset exactly. `false`
    /// when the budget truncated evaluation or the scoring model counts
    /// only the returned hits (SPARK); vacuously `true` for non-faceted
    /// queries.
    pub facets_exact: bool,
}

impl<H> SearchResponse<H> {
    /// A bare completed response: `hits` with default stats, no truncation,
    /// no trace, no facets — for tests and adapters that wrap non-kwdb
    /// sources.
    pub fn from_hits(hits: Vec<H>) -> Self {
        SearchResponse {
            hits,
            stats: QueryStats::new(),
            truncation: None,
            trace: None,
            facets: Vec::new(),
            facets_exact: true,
        }
    }

    /// `true` when the budget was exhausted and `hits` is best-so-far.
    pub fn truncated(&self) -> bool {
        self.truncation.is_some()
    }

    /// Map every hit through `f`, keeping stats, truncation, and trace.
    /// This is how the typed per-engine responses become the erased
    /// [`SearchResponse<Hit>`] of the [`Engine`] trait.
    pub fn map<T>(self, f: impl FnMut(H) -> T) -> SearchResponse<T> {
        SearchResponse {
            hits: self.hits.into_iter().map(f).collect(),
            stats: self.stats,
            truncation: self.truncation,
            trace: self.trace,
            facets: self.facets,
            facets_exact: self.facets_exact,
        }
    }
}

/// Seal a response: fold the stats into the registry (when the engine
/// carries one), append the query's flight record, and close the trace.
/// Every execute path — early return or full pipeline — goes through here,
/// so registry totals always equal the sum of the per-query `QueryStats`
/// handed back to callers, and the flight recorder sees every query.
#[allow(clippy::too_many_arguments)]
fn finish_response<H>(
    registry: Option<&MetricsRegistry>,
    engine: &'static str,
    algorithm: &'static str,
    req: &SearchRequest,
    workers: usize,
    generation: u64,
    segments: SegmentCounts,
    sampled: bool,
    hits: Vec<H>,
    stats: QueryStats,
    truncation: Option<TruncationReason>,
    trace: TraceBuilder,
) -> SearchResponse<H> {
    let trace = trace.finish();
    if let Some(reg) = registry {
        // Flight record first: an AutoP99 slow threshold then compares this
        // query against the traffic recorded *before* it.
        reg.record_flight(
            QueryRecord::new(
                engine,
                algorithm,
                &req.query,
                req.k,
                workers,
                &stats,
                truncation,
                sampled,
                trace.clone(),
            )
            .with_generation(generation, segments.realtime, segments.sealed),
        );
        record_query(reg, engine, algorithm, &stats, truncation);
    }
    SearchResponse {
        hits,
        stats,
        truncation,
        trace,
        facets: Vec::new(),
        facets_exact: true,
    }
}

/// The effective trace level for one arriving query: the requested level,
/// possibly upgraded by the registry's sampling policy. Returns
/// `(level, sampled)`; engines without a registry never promote.
fn effective_trace(
    registry: Option<&MetricsRegistry>,
    engine: &str,
    algorithm: &str,
    requested: TraceLevel,
) -> (TraceLevel, bool) {
    match registry {
        Some(reg) => reg.sample_trace_level(engine, algorithm, requested),
        None => (requested, false),
    }
}

/// Key of one result-cache entry. The **generation** component makes
/// mutation the only invalidation protocol: a successful
/// ingest/delete/commit bumps the engine's generation, stale entries stop
/// matching, and the byte-budgeted LRU ages them out. `terms` is the
/// normalized keyword **multiset** (sorted, duplicates kept) *after* query
/// cleaning, so `"query data"`, `"data query"`, and a misspelling the
/// cleaner maps onto the same terms all share one entry. Facet specs and
/// refinements are canonicalized through their `Debug` rendering — they
/// are plain data enums, so the rendering is total and injective enough
/// for a cache key.
#[derive(Clone, PartialEq, Eq, Hash)]
struct ResultKey {
    generation: u64,
    terms: Vec<String>,
    algorithm: &'static str,
    k: usize,
    layout: Layout,
    facets: String,
    refinements: String,
    summaries: usize,
}

impl ResultKey {
    fn new(
        generation: u64,
        keywords: &[String],
        algorithm: &'static str,
        layout: Layout,
        req: &SearchRequest,
    ) -> Self {
        let mut terms = keywords.to_vec();
        terms.sort();
        ResultKey {
            generation,
            terms,
            algorithm,
            k: req.k,
            layout,
            facets: format!("{:?}", req.facets),
            refinements: format!("{:?}", req.refinements),
            summaries: req.summaries,
        }
    }
}

/// The cached portion of a sealed [`SearchResponse`]: the ranked hits and
/// the facet verdict. Stats, truncation, and trace are *per-execution*
/// observations and are never cached — a hit re-stamps fresh
/// [`QueryStats`] (near-zero phase timings, `result_cache_hits = 1`).
/// Only untruncated responses are stored, so `truncation` needs no slot.
struct CachedSearch<H> {
    hits: Vec<H>,
    facets: Vec<FacetCounts>,
    facets_exact: bool,
}

/// One engine's result cache: the sharded singleflight LRU plus the
/// eviction high-water already published to the registry (so the eviction
/// counter advances by exact deltas under concurrent queries).
struct ResultCache<H> {
    cache: ShardedCache<ResultKey, Arc<CachedSearch<H>>>,
    evictions_seen: AtomicU64,
}

impl<H> ResultCache<H> {
    fn new(cfg: CacheConfig) -> Self {
        ResultCache {
            cache: ShardedCache::new(cfg),
            evictions_seen: AtomicU64::new(0),
        }
    }

    fn enabled(&self) -> bool {
        self.cache.config().enabled
    }

    /// Whether this request may be answered from (and written to) the
    /// cache. Traced or trace-sampled queries bypass — a cached response
    /// carries no trace, and serving one would silently drop the
    /// observability the caller (or the sampling policy) asked for.
    /// Budget-constrained queries bypass too: a deadline or candidate cap
    /// makes the response a property of *this* execution's race against
    /// the clock, not of the data, and a capped request must not be handed
    /// a complete answer some uncapped twin computed.
    fn admits(&self, req: &SearchRequest, level: TraceLevel) -> bool {
        self.enabled() && req.use_cache && level == TraceLevel::Off && req.budget.is_unlimited()
    }

    /// Push the entries/bytes gauges and the eviction-counter delta after
    /// a consult.
    fn publish(&self, registry: Option<&MetricsRegistry>, engine: &'static str) {
        let Some(reg) = registry else { return };
        let stats = self.cache.stats();
        let labels = [("engine", engine)];
        reg.gauge(families::RESULT_CACHE_ENTRIES, &labels)
            .set(stats.entries as i64);
        reg.gauge(families::RESULT_CACHE_BYTES, &labels)
            .set(stats.bytes as i64);
        let seen = self.evictions_seen.swap(stats.evictions, Ordering::Relaxed);
        reg.counter(families::RESULT_CACHE_EVICTIONS, &labels)
            .add(stats.evictions.saturating_sub(seen));
    }
}

/// Approximate heap footprint of a cached response, for the cache's byte
/// budget. Estimates lean high-side: over-counting shrinks the effective
/// cache, under-counting would overrun the budget.
fn cached_bytes<H>(hits: &[H], per_hit: impl Fn(&H) -> usize, facets: &[FacetCounts]) -> usize {
    let hit_bytes: usize = hits.iter().map(per_hit).sum();
    let facet_bytes: usize = facets
        .iter()
        .map(|f| f.values.iter().map(|v| v.value.len() + 24).sum::<usize>() + 48)
        .sum();
    hit_bytes + facet_bytes + 96
}

fn relational_hit_bytes(h: &RelationalHit) -> usize {
    h.rendered.len()
        + h.summary.iter().map(|s| s.len() + 24).sum::<usize>()
        + h.tuples.len() * 8
        + 64
}

fn graph_hit_bytes(t: &AnswerTree) -> usize {
    t.edges.len() * 8 + t.matches.len() * 4 + 48
}

fn xml_hit_bytes(h: &XmlHit) -> usize {
    h.label_path.len() + 40
}

/// A hit from *some* engine: the erased result type of [`Engine::execute`].
///
/// Each variant preserves the engine's full typed payload, so nothing is
/// lost by going through the trait — match to get it back.
#[derive(Debug, Clone)]
pub enum Hit {
    /// A joining tree of tuples from the relational engine.
    Relational(RelationalHit),
    /// An answer tree from the graph engine.
    Graph(AnswerTree),
    /// A ranked result subtree from the XML engine.
    Xml(XmlHit),
}

impl Hit {
    /// A uniform "higher is better" ranking value: the hit's score for
    /// relational/XML hits, the *negated* tree cost for graph hits (graph
    /// engines minimize cost).
    pub fn score(&self) -> f64 {
        match self {
            Hit::Relational(h) => h.score,
            Hit::Graph(t) => -t.cost,
            Hit::Xml(h) => h.score,
        }
    }

    /// Which data model produced this hit: `"relational"`, `"graph"`, or
    /// `"xml"`.
    pub fn kind(&self) -> &'static str {
        match self {
            Hit::Relational(_) => "relational",
            Hit::Graph(_) => "graph",
            Hit::Xml(_) => "xml",
        }
    }
}

/// A dynamically dispatchable search engine.
///
/// All three unified engines implement it, so heterogeneous engines can be
/// stored as `Arc<dyn Engine>` in a [`crate::dispatch::Catalog`] and
/// queried concurrently — the `Send + Sync` supertrait bound makes the
/// shareability requirement part of the contract, enforced at compile time.
pub trait Engine: Send + Sync {
    /// Execute a budgeted, instrumented search; hits come back erased as
    /// [`Hit`]s.
    fn execute(&self, req: &SearchRequest) -> Result<SearchResponse<Hit>>;
}

/// A record accepted by [`MutableEngine::ingest`] — the erased counterpart
/// of the typed per-engine ingest methods, so mutation can be driven
/// through `Arc<dyn MutableEngine>` in a catalog.
#[derive(Debug, Clone)]
#[non_exhaustive]
pub enum IngestRecord {
    /// One relational tuple: column values for a row of `table`.
    Tuple { table: String, values: Row },
}

/// What [`MutableEngine::delete`] removes.
#[derive(Debug, Clone)]
#[non_exhaustive]
pub enum DeleteKey {
    /// The row of `table` whose primary key equals `pk`.
    TuplePk { table: String, pk: Value },
}

/// Report of a [`MutableEngine::commit`]: the engine's generation after the
/// seal and the index's segment census.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CommitOutcome {
    /// The engine's data generation at commit time.
    pub generation: u64,
    /// Realtime/sealed segment counts after the seal.
    pub segments: SegmentCounts,
}

/// An engine that supports incremental mutation over its generational
/// index: `ingest`/`delete` apply a change *and* maintain the index (no
/// rebuild), `commit` seals the realtime segment. Every successful
/// mutation bumps the engine's monotonic [`generation`](Self::generation).
pub trait MutableEngine: Engine {
    /// Ingest one record through the incremental path. Fails with a typed
    /// error when the record's shape doesn't fit this engine, when
    /// integrity checks (FKs, arity, types) reject it, or when the index
    /// was never built / has gone stale behind out-of-band mutations.
    fn ingest(&self, record: IngestRecord) -> Result<()>;

    /// Delete by key: tombstone the data and drop it from the index.
    fn delete(&self, key: DeleteKey) -> Result<()>;

    /// Seal the realtime segment into an immutable compressed segment.
    fn commit(&self) -> Result<CommitOutcome>;

    /// The monotonic data generation: bumped by every successful mutation.
    fn generation(&self) -> u64;
}

// Compile-time proof that every engine (and a trait object of them) can be
// shared across threads.
const _: () = {
    const fn assert_send_sync<T: Send + Sync + ?Sized>() {}
    assert_send_sync::<RelationalEngine>();
    assert_send_sync::<GraphEngine>();
    assert_send_sync::<XmlEngine>();
    assert_send_sync::<Arc<dyn Engine>>();
};

/// A rendered relational hit.
#[derive(Debug, Clone)]
pub struct RelationalHit {
    pub score: f64,
    /// The joining tree of tuples, rendered `table(v, …) ⋈ table(v, …)`.
    pub rendered: String,
    pub tuples: Vec<kwdb_relational::TupleId>,
    /// The size-`l` object summary, one rendered tuple per line, when the
    /// request asked for one ([`SearchRequest::summaries`]); empty
    /// otherwise.
    pub summary: Vec<String>,
}

/// Which scoring model the relational engine ranks with.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Scoring {
    /// DISCOVER2's monotone tf·idf-per-tuple model (Global Pipeline).
    #[default]
    Monotone,
    /// SPARK's non-monotonic virtual-document model (Skyline-Sweep).
    Spark,
}

/// Configuration for the relational pipeline.
#[derive(Debug, Clone, Copy)]
pub struct RelationalConfig {
    /// Maximum candidate-network size.
    pub max_cn_size: usize,
    /// Safety cap on generated CNs (0 = unlimited).
    pub max_cns: usize,
    pub scoring: Scoring,
    /// Cap on cached CN plans; inserting past it evicts an arbitrary entry
    /// (0 = unbounded cache).
    pub max_cache_entries: usize,
    /// Worker threads evaluating one query's candidate networks.
    /// `0` = available parallelism (capped at 8); `1` = the serial global
    /// pipeline. Either way the returned top-k is identical — the score
    /// model is monotone and the parallel merge is content-ordered.
    pub intra_query_workers: usize,
    /// Physical layout of the full-text posting lists:
    /// [`Layout::Plain`] (sorted arrays) or [`Layout::Blocks`]
    /// (delta-encoded bit-packed blocks with skip + block-max metadata —
    /// several-fold smaller, and the WAND fast path can skip whole blocks).
    /// The returned top-k is identical either way. Applied at engine
    /// construction when the engine is the database's sole owner; a shared
    /// database keeps its current layout (re-encode it yourself via
    /// [`Database::set_posting_layout`] before sharing).
    pub posting_layout: Layout,
    /// Opt-in query cleaning at the term-dictionary boundary: when a parsed
    /// keyword has no entry in the text index, run the noisy-channel
    /// spell/segmentation pass ([`kwdb_qclean`]) over the whole query and
    /// search the cleaned keywords instead. The corrector and phrase model
    /// are built once per engine, lazily, from the index vocabulary and the
    /// full-text column values. Default `false`: unknown keywords simply
    /// match nothing, as before.
    pub clean_queries: bool,
    /// The engine's generation-keyed query caches: one [`CacheConfig`]
    /// sizes both the **result cache** (whole sealed responses, keyed by
    /// generation + normalized terms + algorithm/k/layout/facets) and the
    /// **tuple-set term cache** (per-term sorted tuple-key lists). Enabled
    /// by default; pass [`CacheConfig::disabled`] for fully deterministic
    /// per-query counters (benchmarks, determinism suites).
    pub result_cache: CacheConfig,
}

impl Default for RelationalConfig {
    fn default() -> Self {
        RelationalConfig {
            max_cn_size: 5,
            max_cns: 2000,
            scoring: Scoring::Monotone,
            max_cache_entries: 256,
            intra_query_workers: 0,
            posting_layout: Layout::Plain,
            clean_queries: false,
            result_cache: CacheConfig::default(),
        }
    }
}

/// Key of one CN plan-cache entry: schema fingerprint, **data
/// generation**, the sorted keyword term set, and the generator
/// configuration. The generation component means a mutation can never
/// serve a plan computed over older data — stale entries simply stop
/// matching and age out through the bounded cache's eviction.
type CnCacheKey = (u64, u64, Vec<String>, usize, usize);

/// The relational engine's mutable core: the database handle plus the
/// corpus statistics its scorer derives tf·idf weights from, kept in
/// lockstep by the mutation path (`add_doc` on ingest, `remove_doc` on
/// delete). Queries hold the read lock end to end, so a mutation never
/// swaps state underneath a running query.
struct EngineState {
    db: Arc<Database>,
    corpus: Arc<CorpusStats>,
}

/// DISCOVER-style keyword search over a relational database: tuple sets →
/// candidate networks → bound-driven top-k evaluation.
///
/// Owns its database behind an `Arc`, so the engine is `Send + Sync` and
/// one instance can serve concurrent queries; the CN plan cache is a
/// read-mostly `RwLock` map, so repeat queries don't serialize.
pub struct RelationalEngine {
    /// Generational state: swapped copy-on-write by the mutation path.
    state: RwLock<EngineState>,
    cfg: RelationalConfig,
    cn_cache: RwLock<HashMap<CnCacheKey, Arc<Vec<CandidateNetwork>>>>,
    registry: Option<Arc<MetricsRegistry>>,
    /// Worker evaluation scratch (hash-table and buffer reuse), shared
    /// across queries — workers check out one `EvalScratch` each.
    scratch: ScratchPool<EvalScratch>,
    /// Lazily built query-cleaning model ([`RelationalConfig::clean_queries`]):
    /// a spelling corrector over the index vocabulary plus a phrase model
    /// over the full-text column values. Built at most once per engine.
    clean: OnceLock<(SpellCorrector, ValuePhraseModel)>,
    /// Cumulative segment merges already published to the registry, so the
    /// merge counter advances by exact deltas.
    merges_seen: AtomicU64,
    /// Generation-keyed whole-response cache with singleflight: repeat
    /// queries skip build/plan/evaluate entirely, and N threads racing on
    /// a cold key compute once.
    result_cache: ResultCache<RelationalHit>,
    /// Generation-keyed per-term tuple-set cache: materialized sorted
    /// tuple-key lists shared across queries that mention the same term.
    tupleset_cache: TermCache,
}

impl RelationalEngine {
    /// Build an engine owning `db` (pass a `Database` to move it in, or an
    /// `Arc<Database>` to share it with other owners).
    pub fn new(db: impl Into<Arc<Database>>) -> Self {
        Self::with_config(db, RelationalConfig::default())
    }

    pub fn with_config(db: impl Into<Arc<Database>>, cfg: RelationalConfig) -> Self {
        let mut db = db.into();
        if db
            .text_index()
            .is_ok_and(|ix| ix.layout() != cfg.posting_layout)
        {
            // Re-encode in place when we are the sole owner; a shared
            // database keeps whatever layout its owner chose.
            if let Some(owned) = Arc::get_mut(&mut db) {
                owned.set_posting_layout(cfg.posting_layout);
            }
        }
        let merges_seen = db.text_index().map_or(0, |ix| ix.merges());
        let corpus = Arc::new(corpus_stats(&db));
        RelationalEngine {
            state: RwLock::new(EngineState { db, corpus }),
            cfg,
            cn_cache: RwLock::new(HashMap::new()),
            registry: None,
            scratch: ScratchPool::new(),
            clean: OnceLock::new(),
            merges_seen: AtomicU64::new(merges_seen),
            result_cache: ResultCache::new(cfg.result_cache),
            tupleset_cache: TermCache::new(cfg.result_cache),
        }
    }

    /// The worker count [`RelationalConfig::intra_query_workers`] resolves
    /// to: itself when non-zero, else available parallelism capped at 8
    /// (matching the dispatcher's sizing).
    pub fn resolved_workers(&self) -> usize {
        if self.cfg.intra_query_workers > 0 {
            self.cfg.intra_query_workers
        } else {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
                .min(8)
        }
    }

    /// Record every query (and plan-cache activity) into `registry`, and
    /// publish the text index's build/size figures, the engine generation,
    /// and the segment census up front.
    pub fn with_registry(mut self, registry: Arc<MetricsRegistry>) -> Self {
        {
            let st = self.state.read().expect("engine state poisoned");
            if let Ok(ix) = st.db.text_index() {
                record_index_stats(&registry, "relational_text", &ix.index_stats());
            }
            let segments = st
                .db
                .text_index()
                .map_or(SegmentCounts::default(), |ix| ix.segment_counts());
            record_generation(
                &registry,
                "relational",
                st.db.generation(),
                segments.realtime,
                segments.sealed,
                0,
            );
        }
        registry
            .gauge(families::INTRA_WORKERS, &[("engine", "relational")])
            .set(self.resolved_workers() as i64);
        self.registry = Some(registry);
        self
    }

    /// A handle to the database this engine queries — a snapshot of the
    /// current generation. Mutations after this call copy-on-write, so
    /// the returned handle keeps observing the state it was taken at.
    pub fn database(&self) -> Arc<Database> {
        Arc::clone(&self.state.read().expect("engine state poisoned").db)
    }

    /// The engine's data generation (bumped by every successful mutation).
    pub fn generation(&self) -> u64 {
        self.state
            .read()
            .expect("engine state poisoned")
            .db
            .generation()
    }

    /// Realtime/sealed segment census of the text index (zeros when the
    /// index was never built).
    pub fn segment_counts(&self) -> SegmentCounts {
        self.state
            .read()
            .expect("engine state poisoned")
            .db
            .text_index()
            .map_or(SegmentCounts::default(), |ix| ix.segment_counts())
    }

    /// Ingest one tuple through the incremental path: FK-validate, append
    /// to the table, index into the realtime segment, and keep the
    /// scorer's corpus statistics in lockstep — no rebuild, no rescan.
    /// Requires a fresh index (build once, then ingest); a shared database
    /// is copy-on-written, so handles returned by
    /// [`database`](Self::database) before the call keep their snapshot.
    pub fn ingest_tuple(&self, table: &str, row: Row) -> Result<TupleId> {
        let mut guard = self.state.write().expect("engine state poisoned");
        let st = &mut *guard;
        let db = Arc::make_mut(&mut st.db);
        let id = db.ingest(table, row)?;
        Arc::make_mut(&mut st.corpus).add_doc(&db.tuple_tokens(id));
        if let Some(reg) = &self.registry {
            reg.counter(families::INGESTED_TUPLES, &[("engine", "relational")])
                .inc();
        }
        self.publish_generation(db);
        Ok(id)
    }

    /// Delete the row of `table` whose primary key equals `pk`: tombstone
    /// the row, drop its postings (realtime removal + sealed-segment
    /// tombstones), and back its tokens out of the corpus statistics.
    pub fn delete_tuple(&self, table: &str, pk: &Value) -> Result<TupleId> {
        let mut guard = self.state.write().expect("engine state poisoned");
        let st = &mut *guard;
        let db = Arc::make_mut(&mut st.db);
        let id = db.delete(table, pk)?;
        // Row payloads stay in place under the tombstone, so the deleted
        // tuple's tokens are still readable here.
        Arc::make_mut(&mut st.corpus).remove_doc(&db.tuple_tokens(id));
        self.publish_generation(db);
        Ok(id)
    }

    /// Seal the realtime segment into an immutable compressed segment
    /// (folding the two smallest sealed segments when at the cap).
    pub fn commit(&self) -> Result<CommitOutcome> {
        let mut guard = self.state.write().expect("engine state poisoned");
        let st = &mut *guard;
        let db = Arc::make_mut(&mut st.db);
        db.text_index()?; // nothing to seal without a fresh index
        let segments = db.commit_index();
        let outcome = CommitOutcome {
            generation: db.generation(),
            segments,
        };
        self.publish_generation(db);
        Ok(outcome)
    }

    /// Compact every sealed segment (and any realtime postings) into one,
    /// dropping tombstoned entries and re-aggregating exact term stats.
    pub fn merge(&self) -> Result<CommitOutcome> {
        let mut guard = self.state.write().expect("engine state poisoned");
        let st = &mut *guard;
        let db = Arc::make_mut(&mut st.db);
        db.text_index()?;
        let segments = db.merge_index();
        let outcome = CommitOutcome {
            generation: db.generation(),
            segments,
        };
        self.publish_generation(db);
        Ok(outcome)
    }

    /// Push the generation gauge, segment gauges, and merge-counter delta
    /// after a mutation.
    fn publish_generation(&self, db: &Database) {
        let (segments, merges) = db.text_index().map_or((SegmentCounts::default(), 0), |ix| {
            (ix.segment_counts(), ix.merges())
        });
        let seen = self.merges_seen.swap(merges, Ordering::Relaxed);
        if let Some(reg) = &self.registry {
            record_generation(
                reg,
                "relational",
                db.generation(),
                segments.realtime,
                segments.sealed,
                merges.saturating_sub(seen),
            );
        }
    }

    /// Execute a [`SearchRequest`]: budgeted, instrumented top-k search,
    /// with optional facet counting, drill-down refinements, per-hit
    /// object summaries, and (when configured) query cleaning.
    pub fn execute(&self, req: &SearchRequest) -> Result<SearchResponse<RelationalHit>> {
        // Hold the read lock end to end: the whole query sees one
        // generation; concurrent queries share the lock, only mutations
        // take it exclusively.
        let state = self.state.read().expect("engine state poisoned");
        let st = &*state;
        let generation = st.db.generation();
        let segments = st
            .db
            .text_index()
            .map_or(SegmentCounts::default(), |ix| ix.segment_counts());
        let mut stats = QueryStats::new();
        let mut sw = Stopwatch::start();
        let budget = &req.budget;
        let scoring = req.scoring.unwrap_or(self.cfg.scoring);
        let workers = self.resolved_workers();
        let algorithm = match scoring {
            Scoring::Monotone if workers > 1 => "parallel_cn",
            Scoring::Monotone => "global_pipeline",
            Scoring::Spark => "spark",
        };
        let reg = self.registry.as_deref();
        let (level, sampled) = effective_trace(reg, "relational", algorithm, req.trace);
        let mut tb = TraceBuilder::new(level, format!("relational/{algorithm} {:?}", req.query));
        let done = |hits, stats, truncation, tb| {
            Ok(finish_response(
                reg,
                "relational",
                algorithm,
                req,
                workers,
                generation,
                segments,
                sampled,
                hits,
                stats,
                truncation,
                tb,
            ))
        };

        // Facet and refinement attributes are schema references, not query
        // keywords: resolve them up front so an unknown `table.column`
        // fails the request with a typed error instead of silently counting
        // nothing. Resolution is independent of the keyword set, so
        // drill-downs reuse the CN plan cache untouched.
        let facets = resolve_facets(&st.db, &req.facets)?;
        let refinements = resolve_refinements(&st.db, &req.refinements)?;
        let freq = FacetRequest {
            facets: &facets,
            refinements: &refinements,
        };
        let seal =
            |mut resp: SearchResponse<RelationalHit>, counts: Vec<FacetCounts>, exact: bool| {
                if let Some(reg) = reg {
                    if !facets.is_empty() {
                        let values = counts.iter().map(|f| f.values.len() as u64).sum();
                        record_facets(reg, "relational", values, exact);
                    }
                }
                resp.facets = counts;
                resp.facets_exact = exact;
                resp
            };
        // Zero counts for every requested facet — what an empty result set
        // faceted over looks like; the early returns below hand these back.
        let zero_counts = || FacetAccum::new(facets.len()).finish(&facets);

        tb.phase("parse");
        let mut keywords = parse_query(&req.query);
        if self.cfg.clean_queries && !keywords.is_empty() {
            let ix = st.db.text_index()?;
            if keywords.iter().any(|kw| ix.sym(kw).is_none()) {
                // At least one keyword misses the term dictionary: run the
                // noisy-channel spell + segmentation pass once, over the
                // whole query, and search the cleaned tokens instead.
                let (corrector, model) = self.clean_model(&st.db);
                if let Some(cleaned) = clean_query(corrector, model, &keywords, 2) {
                    tb.event("query cleaned", || {
                        vec![
                            ("from".into(), keywords.join(" ")),
                            ("to".into(), cleaned.display()),
                        ]
                    });
                    keywords = cleaned.tokens().iter().map(|s| s.to_string()).collect();
                }
            }
        }
        stats.phases.parse = sw.lap();
        tb.event("keywords", || {
            vec![("count".into(), keywords.len().to_string())]
        });
        if keywords.is_empty() {
            return Ok(seal(
                done(Vec::new(), stats, None, tb)?,
                zero_counts(),
                true,
            ));
        }
        if let Some(reason) = budget.truncation() {
            tb.event("budget verdict", || {
                vec![("truncated".into(), reason.to_string())]
            });
            let exact = facets.is_empty();
            return Ok(seal(
                done(Vec::new(), stats, Some(reason), tb)?,
                zero_counts(),
                exact,
            ));
        }
        // Everything below — tuple sets, planning, evaluation, facet
        // finalization — is the cacheable unit: `run` computes one full
        // sealed response from the query context it is handed. The
        // non-caching path calls it directly; the caching path runs it as
        // the singleflight leader's compute.
        let run = |mut stats: QueryStats, mut sw: Stopwatch, mut tb: TraceBuilder| {
            tb.phase("build");
            let ts = if self.cfg.result_cache.enabled {
                let (ts, ts_hits, ts_misses) =
                    TupleSets::build_cached(&st.db, &keywords, &self.tupleset_cache)?;
                if let Some(reg) = reg {
                    let labels = [("engine", "relational")];
                    reg.counter(families::TUPLESET_CACHE_HITS, &labels)
                        .add(ts_hits);
                    reg.counter(families::TUPLESET_CACHE_MISSES, &labels)
                        .add(ts_misses);
                }
                ts
            } else {
                TupleSets::build(&st.db, &keywords)?
            };
            stats.phases.build = sw.lap();
            if !ts.covers_all_keywords() {
                tb.event("tuple sets", || {
                    vec![("covers_all_keywords".into(), "false".into())]
                });
                return Ok(seal(
                    done(Vec::new(), stats, None, tb)?,
                    zero_counts(),
                    true,
                ));
            }
            if let Some(reason) = budget.truncation() {
                let exact = facets.is_empty();
                return Ok(seal(
                    done(Vec::new(), stats, Some(reason), tb)?,
                    zero_counts(),
                    exact,
                ));
            }
            tb.phase("plan");
            let cns = self.plan(&st.db, &keywords, &ts, &mut stats, &mut tb);
            stats.phases.plan = sw.lap();
            stats.candidates_generated = cns.len() as u64;

            tb.phase("evaluate");
            // Per-query scorer over the incrementally maintained corpus stats:
            // two Arc clones, no corpus rescan.
            let scorer = ResultScorer::from_stats(Arc::clone(&st.db), Arc::clone(&st.corpus));
            let q = TopKQuery {
                db: &st.db,
                ts: &ts,
                cns: &cns,
                scorer: &scorer,
                keywords: &keywords,
            };
            let exec = ExecStats::new();
            let mut accum = FacetAccum::new(facets.len());
            let CnExecOutcome {
                results: ranked,
                truncation,
                cns_evaluated,
                cns_pruned,
            } = match scoring {
                Scoring::Monotone if workers > 1 => {
                    let (outcome, worker_accum) = parallel_topk_faceted(
                        &q,
                        req.k,
                        &exec,
                        budget,
                        workers,
                        &self.scratch,
                        &freq,
                    );
                    accum = worker_accum;
                    outcome
                }
                Scoring::Monotone => {
                    global_pipeline_faceted(&q, req.k, &exec, budget, &freq, &mut accum)
                }
                Scoring::Spark => {
                    // Skyline-Sweep has no CN-level accounting (0/0) and no
                    // exhaustive mode: refinements filter the returned hits
                    // post-hoc and facet counts cover only what came back
                    // (`facets_exact` stays false for faceted SPARK queries).
                    let (results, truncation) = skyline_sweep_budgeted(&q, req.k, &exec, budget);
                    let results: Vec<_> = results
                        .into_iter()
                        .filter(|r| freq.passes(&st.db, &r.result))
                        .collect();
                    for r in &results {
                        accum.observe(&st.db, &facets, &r.result);
                    }
                    CnExecOutcome {
                        results,
                        truncation,
                        cns_evaluated: 0,
                        cns_pruned: 0,
                    }
                }
            };
            stats.phases.evaluate = sw.lap();
            let snap = exec.snapshot();
            stats.operators.tuples_scanned = snap.tuples_scanned;
            stats.operators.join_probes = snap.join_probes;
            stats.operators.joins_executed = snap.joins_executed;
            stats.operators.rows_output = snap.rows_output;
            stats.operators.join_probe_rows = snap.probe_rows;
            stats.operators.blocks_skipped = snap.blocks_skipped;
            stats.cns_evaluated = cns_evaluated;
            stats.cns_pruned = cns_pruned;
            stats.candidates_pruned = stats.candidates_generated.saturating_sub(
                ranked
                    .iter()
                    .map(|r| r.cn_index)
                    .collect::<std::collections::HashSet<_>>()
                    .len() as u64,
            );
            tb.event("operators", || {
                vec![
                    ("tuples_scanned".into(), snap.tuples_scanned.to_string()),
                    ("join_probes".into(), snap.join_probes.to_string()),
                    ("rows_output".into(), snap.rows_output.to_string()),
                ]
            });
            tb.event("budget verdict", || {
                vec![(
                    "truncated".into(),
                    truncation.map_or("no".into(), |r| r.to_string()),
                )]
            });

            // Facet finalization + per-hit summaries. Counts are exact when the
            // executor ran in exhaustive mode to completion: every CN evaluated
            // fully, so the accumulated multiset is the full result multiset
            // regardless of worker count or posting layout.
            tb.phase("facets");
            let facets_exact =
                facets.is_empty() || (matches!(scoring, Scoring::Monotone) && truncation.is_none());
            let facet_counts = accum.finish(&facets);
            let hits: Vec<RelationalHit> = ranked
                .into_iter()
                .map(|r| RelationalHit {
                    score: r.score,
                    rendered: r
                        .result
                        .tuples
                        .iter()
                        .map(|&t| st.db.format_tuple(t))
                        .collect::<Vec<_>>()
                        .join(" ⋈ "),
                    summary: if req.summaries == 0 {
                        Vec::new()
                    } else {
                        render_summary(
                            &st.db,
                            &object_summary(&st.db, &r.result.tuples, req.summaries),
                        )
                    },
                    tuples: r.result.tuples,
                })
                .collect();
            if !facets.is_empty() {
                tb.event("facets", || {
                    vec![
                        ("requested".into(), facets.len().to_string()),
                        (
                            "values".into(),
                            facet_counts
                                .iter()
                                .map(|f| f.values.len())
                                .sum::<usize>()
                                .to_string(),
                        ),
                        ("exact".into(), facets_exact.to_string()),
                    ]
                });
            }
            stats.phases.facets = sw.lap();
            Ok(seal(
                done(hits, stats, truncation, tb)?,
                facet_counts,
                facets_exact,
            ))
        };

        if !self.result_cache.admits(req, level) {
            return run(stats, sw, tb);
        }
        let key = ResultKey::new(
            generation,
            &keywords,
            algorithm,
            self.cfg.posting_layout,
            req,
        );
        // The pre-consult context (parse timing already folded in) travels
        // into whichever arm actually seals the response: the singleflight
        // leader's compute, or the hit path below.
        let mut ctx = Some((stats, sw, tb));
        let outcome = self.result_cache.cache.get_or_compute(key, || {
            let (mut stats, sw, tb) = ctx.take().expect("leader owns the query context");
            stats.result_cache_misses = 1;
            let result = run(stats, sw, tb);
            let store = match &result {
                // Only complete answers enter the cache; `admits` already
                // keeps constrained budgets out, so truncation here is
                // impossible — this is a belt-and-braces guard.
                Ok(resp) if resp.truncation.is_none() => Some((
                    Arc::new(CachedSearch {
                        hits: resp.hits.clone(),
                        facets: resp.facets.clone(),
                        facets_exact: resp.facets_exact,
                    }),
                    cached_bytes(&resp.hits, relational_hit_bytes, &resp.facets),
                )),
                _ => None,
            };
            (result, store)
        });
        let resp = match outcome {
            Looked::Computed(result) => result,
            Looked::Cached(v) => {
                let (mut stats, _sw, tb) = ctx.take().expect("a hit leaves the context untouched");
                stats.result_cache_hits = 1;
                done(v.hits.clone(), stats, None, tb)
                    .map(|r| seal(r, v.facets.clone(), v.facets_exact))
            }
        };
        self.result_cache.publish(reg, "relational");
        resp
    }

    /// Generate (or fetch from the plan cache) the candidate networks for
    /// this keyword term set.
    ///
    /// Read-mostly locking: the hot path takes the read lock only, so
    /// concurrent repeat queries never serialize. A miss upgrades to the
    /// write lock and re-checks before generating, so for N threads racing
    /// on a cold key exactly one generates (and reports the miss) while the
    /// rest block briefly and then hit. The cache is bounded by
    /// `cfg.max_cache_entries`; inserts past it evict an arbitrary entry,
    /// with size/generation/eviction reported to the registry.
    fn plan(
        &self,
        db: &Database,
        keywords: &[String],
        ts: &TupleSets,
        stats: &mut QueryStats,
        tb: &mut TraceBuilder,
    ) -> Arc<Vec<CandidateNetwork>> {
        let mut terms: Vec<String> = keywords.to_vec();
        terms.sort();
        terms.dedup();
        let key: CnCacheKey = (
            db.schema_fingerprint(),
            db.generation(),
            terms,
            self.cfg.max_cn_size,
            self.cfg.max_cns,
        );
        if let Some(cns) = self.cn_cache.read().expect("cn cache poisoned").get(&key) {
            stats.cache_hits = 1;
            tb.event("plan cache", || {
                vec![
                    ("outcome".into(), "hit".into()),
                    ("cns".into(), cns.len().to_string()),
                ]
            });
            return Arc::clone(cns);
        }
        let mut cache = self.cn_cache.write().expect("cn cache poisoned");
        if let Some(cns) = cache.get(&key) {
            // Lost the generation race to another thread: its plan is ours.
            stats.cache_hits = 1;
            tb.event("plan cache", || {
                vec![
                    ("outcome".into(), "hit".into()),
                    ("cns".into(), cns.len().to_string()),
                ]
            });
            return Arc::clone(cns);
        }
        stats.cache_misses = 1;
        let oracle = MaskOracle::from_tuplesets(ts);
        let mut generator = CnGenerator::new(
            db.schema_graph(),
            &oracle,
            CnGenConfig {
                max_size: self.cfg.max_cn_size,
                dedupe: true,
                max_cns: self.cfg.max_cns,
            },
        );
        let cns = Arc::new(generator.generate());
        let mut evicted = false;
        if self.cfg.max_cache_entries > 0 && cache.len() >= self.cfg.max_cache_entries {
            let victim = cache.keys().next().cloned().expect("cache is non-empty");
            cache.remove(&victim);
            evicted = true;
        }
        cache.insert(key, Arc::clone(&cns));
        if let Some(reg) = &self.registry {
            let labels = [("engine", "relational")];
            reg.counter(families::PLAN_CACHE_GENERATIONS, &labels).inc();
            if evicted {
                reg.counter(families::PLAN_CACHE_EVICTIONS, &labels).inc();
            }
            reg.gauge(families::PLAN_CACHE_SIZE, &labels)
                .set(cache.len() as i64);
        }
        tb.event("plan cache", || {
            vec![
                ("outcome".into(), "miss".into()),
                ("cns".into(), cns.len().to_string()),
                ("evicted".into(), evicted.to_string()),
            ]
        });
        cns
    }

    /// The lazily built query-cleaning model: a noisy-channel
    /// [`SpellCorrector`] whose vocabulary is the text index's term
    /// dictionary (document frequency as the language-model prior) and a
    /// [`ValuePhraseModel`] over the full-text column values (so
    /// segmentation recovers multi-token values). Built at most once per
    /// engine, on the first query that needs cleaning.
    fn clean_model(&self, db: &Database) -> &(SpellCorrector, ValuePhraseModel) {
        self.clean.get_or_init(|| {
            let ix = db.text_index().expect("caller verified a fresh text index");
            let vocab: Vec<(String, u64)> = ix
                .terms()
                .map(|t| {
                    let df = ix.sym(t).map_or(1, |s| ix.term_stats(s).df);
                    (t.to_string(), df.max(1))
                })
                .collect();
            let mut values: Vec<String> = Vec::new();
            for table in db.tables() {
                let text_cols: Vec<usize> = table.schema.text_columns().collect();
                if text_cols.is_empty() {
                    continue;
                }
                for (_, row) in table.iter() {
                    for &c in &text_cols {
                        let v = &row[c];
                        if !matches!(v, kwdb_common::Value::Null) {
                            values.push(v.to_string());
                        }
                    }
                }
            }
            (
                SpellCorrector::from_vocab(vocab),
                ValuePhraseModel::from_values(&values),
            )
        })
    }
}

impl Engine for RelationalEngine {
    fn execute(&self, req: &SearchRequest) -> Result<SearchResponse<Hit>> {
        Ok(RelationalEngine::execute(self, req)?.map(Hit::Relational))
    }
}

impl MutableEngine for RelationalEngine {
    fn ingest(&self, record: IngestRecord) -> Result<()> {
        match record {
            IngestRecord::Tuple { table, values } => {
                self.ingest_tuple(&table, values)?;
                Ok(())
            }
        }
    }

    fn delete(&self, key: DeleteKey) -> Result<()> {
        match key {
            DeleteKey::TuplePk { table, pk } => {
                self.delete_tuple(&table, &pk)?;
                Ok(())
            }
        }
    }

    fn commit(&self) -> Result<CommitOutcome> {
        RelationalEngine::commit(self)
    }

    fn generation(&self) -> u64 {
        RelationalEngine::generation(self)
    }
}

/// Graph answer semantics selectable on a [`SearchRequest`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GraphSemantics {
    /// Exact group Steiner trees (DPBF).
    SteinerExact,
    /// BANKS backward search (distinct-root, approximate Steiner).
    Banks,
    /// BLINKS: distinct-root via the node→keyword index and TA.
    DistinctRoot,
}

/// Keyword search on a data graph under the chosen semantics, with the
/// BLINKS node→keyword index built lazily and invalidated by generation.
///
/// Owns its graph behind an `Arc`; the underlying BANKS/DPBF/BLINKS
/// engines are stateless (`&self`, per-query counters returned with the
/// results), so one `GraphEngine` serves concurrent queries. Graph
/// mutations ([`add_node`](Self::add_node)/[`add_edge`](Self::add_edge))
/// bump the graph's generation; a cached BLINKS index whose build
/// generation lags by more than the **staleness bound** is rebuilt on the
/// next DistinctRoot query — within the bound it keeps serving, trading
/// bounded staleness for rebuild cost.
pub struct GraphEngine {
    g: RwLock<Arc<DataGraph>>,
    /// Full-vocabulary BLINKS index tagged with the graph generation it
    /// was built at; rebuilt lazily past the staleness bound.
    index: RwLock<Option<(u64, Arc<kwdb_graph::NodeKeywordIndex>)>>,
    /// How many generations the cached BLINKS index may lag before a
    /// DistinctRoot query rebuilds it. `0` (default) = any change rebuilds.
    staleness_bound: u64,
    registry: Option<Arc<MetricsRegistry>>,
    /// Cumulative keyword-index merges already published to the registry.
    merges_seen: AtomicU64,
    /// Generation-keyed whole-response cache (see
    /// [`RelationalConfig::result_cache`] for the shared semantics).
    result_cache: ResultCache<AnswerTree>,
}

impl GraphEngine {
    /// Build an engine owning `g` (pass a `DataGraph` to move it in, or an
    /// `Arc<DataGraph>` to share it with other owners).
    pub fn new(g: impl Into<Arc<DataGraph>>) -> Self {
        let g = g.into();
        let merges_seen = g.keyword_index_merges();
        GraphEngine {
            g: RwLock::new(g),
            index: RwLock::new(None),
            staleness_bound: 0,
            registry: None,
            merges_seen: AtomicU64::new(merges_seen),
            result_cache: ResultCache::new(CacheConfig::default()),
        }
    }

    /// Reconfigure (or disable, via [`CacheConfig::disabled`]) the
    /// generation-keyed result cache. On by default; any existing cached
    /// entries are dropped.
    pub fn with_result_cache(mut self, cfg: CacheConfig) -> Self {
        self.result_cache = ResultCache::new(cfg);
        self
    }

    /// Re-encode the graph's keyword→nodes index into `layout` — identical
    /// results, several-fold smaller with [`Layout::Blocks`]. Applied only
    /// when this engine is the graph's sole owner; a shared graph keeps its
    /// current layout (re-encode it yourself via
    /// [`DataGraph::set_keyword_index_layout`] before sharing).
    pub fn with_posting_layout(mut self, layout: Layout) -> Self {
        let g = self.g.get_mut().expect("graph state poisoned");
        if let Some(g) = Arc::get_mut(g) {
            g.set_keyword_index_layout(layout);
        }
        self
    }

    /// Let DistinctRoot queries keep serving a BLINKS index up to `bound`
    /// generations stale instead of rebuilding on every graph change —
    /// answers may miss (or over-include) at most the last `bound`
    /// mutations' keywords, which is often acceptable while ingesting.
    pub fn with_staleness_bound(mut self, bound: u64) -> Self {
        self.staleness_bound = bound;
        self
    }

    /// Record every query into `registry`, and publish the graph keyword
    /// index's size figures, generation, and segment census up front.
    pub fn with_registry(mut self, registry: Arc<MetricsRegistry>) -> Self {
        {
            let g = self.g.read().expect("graph state poisoned");
            record_index_stats(&registry, "graph_keyword", &g.keyword_index_stats());
            let segments = g.keyword_segment_counts();
            record_generation(
                &registry,
                "graph",
                g.generation(),
                segments.realtime,
                segments.sealed,
                0,
            );
        }
        self.registry = Some(registry);
        self
    }

    /// A handle to the data graph this engine queries — a snapshot of the
    /// current generation (mutations copy-on-write).
    pub fn graph(&self) -> Arc<DataGraph> {
        Arc::clone(&self.g.read().expect("graph state poisoned"))
    }

    /// The graph's data generation (bumped by every node/edge added).
    pub fn generation(&self) -> u64 {
        self.g.read().expect("graph state poisoned").generation()
    }

    /// Add a node of `kind` with tokenized `content` — indexed into the
    /// keyword index's realtime segment immediately.
    pub fn add_node(&self, kind: &str, content: &str) -> NodeId {
        let mut g = self.g.write().expect("graph state poisoned");
        let id = Arc::make_mut(&mut g).add_node(kind, content);
        self.publish_generation(&g);
        id
    }

    /// Add an undirected edge of weight `w` between existing nodes.
    pub fn add_edge(&self, u: NodeId, v: NodeId, w: f64) {
        let mut g = self.g.write().expect("graph state poisoned");
        Arc::make_mut(&mut g).add_edge(u, v, w);
        self.publish_generation(&g);
    }

    /// Seal the keyword index's realtime segment into a compressed sealed
    /// segment.
    pub fn commit(&self) -> CommitOutcome {
        let mut g = self.g.write().expect("graph state poisoned");
        let segments = Arc::make_mut(&mut g).commit_keyword_index();
        self.publish_generation(&g);
        CommitOutcome {
            generation: g.generation(),
            segments,
        }
    }

    fn publish_generation(&self, g: &DataGraph) {
        let merges = g.keyword_index_merges();
        let seen = self.merges_seen.swap(merges, Ordering::Relaxed);
        if let Some(reg) = &self.registry {
            let segments = g.keyword_segment_counts();
            record_generation(
                reg,
                "graph",
                g.generation(),
                segments.realtime,
                segments.sealed,
                merges.saturating_sub(seen),
            );
        }
    }

    /// The BLINKS index for the current query: serve the cached one while
    /// it is within the staleness bound, else rebuild under the write lock
    /// (double-checked, so racing queries build once). Returns the index
    /// and whether it was a cache hit.
    fn blinks_index(
        &self,
        g: &DataGraph,
        blinks: &Blinks<'_>,
    ) -> (Arc<kwdb_graph::NodeKeywordIndex>, bool) {
        let generation = g.generation();
        let fresh_enough = |built: u64| generation.saturating_sub(built) <= self.staleness_bound;
        if let Some((built, ix)) = self.index.read().expect("blinks cache poisoned").as_ref() {
            if fresh_enough(*built) {
                return (Arc::clone(ix), true);
            }
        }
        let mut slot = self.index.write().expect("blinks cache poisoned");
        if let Some((built, ix)) = slot.as_ref() {
            if fresh_enough(*built) {
                return (Arc::clone(ix), true);
            }
        }
        let ix = Arc::new(blinks.build_full_index());
        *slot = Some((generation, Arc::clone(&ix)));
        (ix, false)
    }

    /// Execute a [`SearchRequest`] under `req.semantics` (default BANKS).
    pub fn execute(&self, req: &SearchRequest) -> Result<SearchResponse<AnswerTree>> {
        // Snapshot the graph handle; the query runs against one generation
        // even if a mutation lands mid-flight (copy-on-write).
        let g = self.graph();
        execute_graph(
            &g,
            |blinks| self.blinks_index(&g, blinks),
            req,
            self.registry.as_deref(),
            &self.result_cache,
        )
    }
}

impl Engine for GraphEngine {
    fn execute(&self, req: &SearchRequest) -> Result<SearchResponse<Hit>> {
        Ok(GraphEngine::execute(self, req)?.map(Hit::Graph))
    }
}

/// The graph execution pipeline on borrowed data. `blinks_index` resolves
/// the node→keyword index for DistinctRoot queries (the engine's
/// generation-aware cache) and reports whether it was a cache hit;
/// `result_cache` is the engine's generation-keyed response cache.
fn execute_graph(
    g: &DataGraph,
    blinks_index: impl Fn(&Blinks<'_>) -> (Arc<kwdb_graph::NodeKeywordIndex>, bool),
    req: &SearchRequest,
    registry: Option<&MetricsRegistry>,
    result_cache: &ResultCache<AnswerTree>,
) -> Result<SearchResponse<AnswerTree>> {
    let mut stats = QueryStats::new();
    let mut sw = Stopwatch::start();
    let budget = &req.budget;
    let semantics = req.semantics.unwrap_or(GraphSemantics::Banks);
    let algorithm = match semantics {
        GraphSemantics::SteinerExact => "dpbf",
        GraphSemantics::Banks => "banks",
        GraphSemantics::DistinctRoot => "blinks",
    };
    let generation = g.generation();
    let segments = g.keyword_segment_counts();
    let (level, sampled) = effective_trace(registry, "graph", algorithm, req.trace);
    let mut tb = TraceBuilder::new(level, format!("graph/{algorithm} {:?}", req.query));
    let done = |hits, stats, truncation, tb| {
        Ok(finish_response(
            registry, "graph", algorithm, req, 1, generation, segments, sampled, hits, stats,
            truncation, tb,
        ))
    };

    tb.phase("parse");
    let keywords = parse_query(&req.query);
    stats.phases.parse = sw.lap();
    if keywords.is_empty() {
        return done(Vec::new(), stats, None, tb);
    }
    if let Some(reason) = budget.truncation() {
        tb.event("budget verdict", || {
            vec![("truncated".into(), reason.to_string())]
        });
        return done(Vec::new(), stats, Some(reason), tb);
    }
    let run = |mut stats: QueryStats, mut sw: Stopwatch, mut tb: TraceBuilder| {
        let (hits, truncation) = match semantics {
            GraphSemantics::SteinerExact => {
                tb.phase("evaluate");
                let dpbf = Dpbf::new(g);
                let (r, truncation, work) = dpbf.search_budgeted(&keywords, req.k, budget);
                stats.operators.tuples_scanned = work.states_popped as u64;
                tb.event("expansion", || {
                    vec![("states_popped".into(), work.states_popped.to_string())]
                });
                (r, truncation)
            }
            GraphSemantics::Banks => {
                tb.phase("evaluate");
                let banks = BanksI::new(g);
                let (r, truncation, work) = banks.search_budgeted(&keywords, req.k, budget);
                stats.operators.tuples_scanned = work.nodes_expanded as u64;
                tb.event("expansion", || {
                    vec![("nodes_expanded".into(), work.nodes_expanded.to_string())]
                });
                (r, truncation)
            }
            GraphSemantics::DistinctRoot => {
                tb.phase("build");
                let blinks = Blinks::new(g);
                let (ix, prebuilt) = blinks_index(&blinks);
                if prebuilt {
                    stats.cache_hits = 1;
                } else {
                    stats.cache_misses = 1;
                    if let Some(reg) = registry {
                        record_index_stats(reg, "graph_node2kw", &ix.index_stats());
                    }
                }
                tb.event("node-keyword index", || {
                    vec![(
                        "outcome".into(),
                        if prebuilt { "hit" } else { "miss" }.into(),
                    )]
                });
                stats.phases.build = sw.lap();
                tb.phase("evaluate");
                let (r, truncation, work) = blinks.search_budgeted(&ix, &keywords, req.k, budget);
                stats.operators.sorted_accesses = work.sorted_accesses as u64;
                stats.operators.random_accesses = work.random_accesses as u64;
                tb.event("threshold algorithm", || {
                    vec![
                        ("sorted_accesses".into(), work.sorted_accesses.to_string()),
                        ("random_accesses".into(), work.random_accesses.to_string()),
                    ]
                });
                (r, truncation)
            }
        };
        stats.phases.evaluate = sw.lap();
        stats.candidates_generated = hits.len() as u64;
        tb.event("budget verdict", || {
            vec![(
                "truncated".into(),
                truncation.map_or("no".into(), |r| r.to_string()),
            )]
        });
        done(hits, stats, truncation, tb)
    };

    if !result_cache.admits(req, level) {
        return run(stats, sw, tb);
    }
    // The graph keyword index's layout is fixed at engine construction and
    // the cache is per-engine, so the key's layout slot is a constant here.
    let key = ResultKey::new(generation, &keywords, algorithm, Layout::Plain, req);
    let mut ctx = Some((stats, sw, tb));
    let outcome = result_cache.cache.get_or_compute(key, || {
        let (mut stats, sw, tb) = ctx.take().expect("leader owns the query context");
        stats.result_cache_misses = 1;
        let result = run(stats, sw, tb);
        let store = match &result {
            Ok(resp) if resp.truncation.is_none() => Some((
                Arc::new(CachedSearch {
                    hits: resp.hits.clone(),
                    facets: Vec::new(),
                    facets_exact: true,
                }),
                cached_bytes(&resp.hits, graph_hit_bytes, &[]),
            )),
            _ => None,
        };
        (result, store)
    });
    let resp = match outcome {
        Looked::Computed(result) => result,
        Looked::Cached(v) => {
            let (mut stats, _sw, tb) = ctx.take().expect("a hit leaves the context untouched");
            stats.result_cache_hits = 1;
            done(v.hits.clone(), stats, None, tb)
        }
    };
    result_cache.publish(registry, "graph");
    resp
}

/// A ranked XML hit: a result subtree root.
#[derive(Debug, Clone)]
pub struct XmlHit {
    pub root: kwdb_xml::NodeId,
    pub score: f64,
    pub label_path: String,
}

/// SLCA keyword search over an XML tree, ranked by XBridge-style keyword
/// proximity ([`kwdb_rank::proximity`], tutorial slides 158–160).
///
/// Owns the tree and its index together behind one `Arc`, so the engine is
/// `Send + Sync` and the index can never outlive or diverge from its tree.
pub struct XmlEngine {
    data: Arc<(XmlTree, XmlIndex)>,
    registry: Option<Arc<MetricsRegistry>>,
    /// Whole-response cache (see [`RelationalConfig::result_cache`] for
    /// the shared semantics). The tree is immutable, so entries only ever
    /// age out through the LRU budget — generation is pinned to 0.
    result_cache: ResultCache<XmlHit>,
}

impl XmlEngine {
    /// Build an engine owning `tree` and its prebuilt `index`.
    pub fn new(tree: XmlTree, index: XmlIndex) -> Self {
        Self::from_arc(Arc::new((tree, index)))
    }

    /// Build an engine from `tree` alone, constructing the index here.
    pub fn from_tree(tree: XmlTree) -> Self {
        let index = XmlIndex::build(&tree);
        Self::new(tree, index)
    }

    /// [`from_tree`](Self::from_tree) with an explicit posting [`Layout`]
    /// for the keyword index. Results are identical across layouts;
    /// [`Layout::Blocks`] trades a small decode cost for a several-fold
    /// smaller index.
    pub fn from_tree_with(tree: XmlTree, layout: Layout) -> Self {
        let index = XmlIndex::build_with(&tree, layout);
        Self::new(tree, index)
    }

    /// Share an existing tree+index pair with other owners.
    pub fn from_arc(data: Arc<(XmlTree, XmlIndex)>) -> Self {
        XmlEngine {
            data,
            registry: None,
            result_cache: ResultCache::new(CacheConfig::default()),
        }
    }

    /// Reconfigure (or disable, via [`CacheConfig::disabled`]) the result
    /// cache. On by default; any existing cached entries are dropped.
    pub fn with_result_cache(mut self, cfg: CacheConfig) -> Self {
        self.result_cache = ResultCache::new(cfg);
        self
    }

    /// Record every query into `registry`, and publish the XML keyword
    /// index's build/size figures up front.
    pub fn with_registry(mut self, registry: Arc<MetricsRegistry>) -> Self {
        record_index_stats(&registry, "xml_keyword", &self.data.1.index_stats());
        self.registry = Some(registry);
        self
    }

    /// The shared tree+index pair this engine queries.
    pub fn data(&self) -> &Arc<(XmlTree, XmlIndex)> {
        &self.data
    }

    /// Execute a [`SearchRequest`]: budgeted SLCA + proximity ranking.
    pub fn execute(&self, req: &SearchRequest) -> Result<SearchResponse<XmlHit>> {
        execute_xml(
            &self.data.0,
            &self.data.1,
            req,
            self.registry.as_deref(),
            &self.result_cache,
        )
    }
}

impl Engine for XmlEngine {
    fn execute(&self, req: &SearchRequest) -> Result<SearchResponse<Hit>> {
        Ok(XmlEngine::execute(self, req)?.map(Hit::Xml))
    }
}

/// The XML execution pipeline on borrowed data.
fn execute_xml(
    tree: &XmlTree,
    index: &XmlIndex,
    req: &SearchRequest,
    registry: Option<&MetricsRegistry>,
    result_cache: &ResultCache<XmlHit>,
) -> Result<SearchResponse<XmlHit>> {
    let mut stats = QueryStats::new();
    let mut sw = Stopwatch::start();
    let budget = &req.budget;
    // XML trees are immutable here: generation 0, but the segment census
    // is real (the keyword index is segment-backed like the others).
    let segments = index.segment_counts();
    let (level, sampled) = effective_trace(registry, "xml", "slca", req.trace);
    let mut tb = TraceBuilder::new(level, format!("xml/slca {:?}", req.query));
    let done = |hits, stats, truncation, tb| {
        Ok(finish_response(
            registry, "xml", "slca", req, 1, 0, segments, sampled, hits, stats, truncation, tb,
        ))
    };

    tb.phase("parse");
    let keywords = parse_query(&req.query);
    stats.phases.parse = sw.lap();
    if keywords.is_empty() {
        return done(Vec::new(), stats, None, tb);
    }
    if let Some(reason) = budget.truncation() {
        tb.event("budget verdict", || {
            vec![("truncated".into(), reason.to_string())]
        });
        return done(Vec::new(), stats, Some(reason), tb);
    }
    let run = |mut stats: QueryStats, mut sw: Stopwatch, mut tb: TraceBuilder| {
        tb.phase("build");
        let (roots, slca_stats, mut truncation) =
            kwdb_xmlsearch::slca_indexed_budgeted(tree, index, &keywords, budget)?;
        stats.phases.build = sw.lap();
        stats.operators.sorted_accesses = slca_stats.anchors as u64;
        stats.operators.random_accesses = slca_stats.probes as u64;
        stats.candidates_generated = roots.len() as u64;
        tb.event("slca", || {
            vec![
                ("roots".into(), roots.len().to_string()),
                ("anchors".into(), slca_stats.anchors.to_string()),
                ("probes".into(), slca_stats.probes.to_string()),
            ]
        });

        tb.phase("evaluate");
        let sizes = tree.subtree_sizes();
        let avg_depth = tree.avg_leaf_depth();
        // one dictionary lookup per keyword; scoring below probes these views
        let kw_lists: Vec<_> = keywords.iter().map(|kw| index.nodes(kw)).collect();
        let mut hits: Vec<XmlHit> = Vec::with_capacity(roots.len());
        for r in roots {
            if !hits.is_empty() {
                if let Some(reason) = budget.truncation_at(hits.len() as u64) {
                    truncation = Some(reason);
                    break;
                }
            }
            // root→match path (node ids) for each keyword's first match
            // inside the result subtree
            let end = kwdb_xml::NodeId(r.0 + sizes[r.0 as usize]);
            let paths: Vec<Vec<u64>> = kw_lists
                .iter()
                .filter_map(|list| {
                    let m = list.right_match(r).filter(|&m| m < end)?;
                    let mut path = vec![m.0 as u64];
                    let mut cur = m;
                    while cur != r {
                        cur = tree.parent(cur).expect("r is an ancestor");
                        path.push(cur.0 as u64);
                    }
                    path.reverse();
                    Some(path)
                })
                .collect();
            hits.push(XmlHit {
                score: kwdb_rank::proximity::proximity_score(&paths, avg_depth),
                label_path: tree.label_path(r),
                root: r,
            });
        }
        // total_cmp: a NaN proximity score must sort deterministically (last),
        // not panic the engine.
        hits.sort_by(|a, b| b.score.total_cmp(&a.score).then(a.root.cmp(&b.root)));
        stats.candidates_pruned = stats
            .candidates_generated
            .saturating_sub(hits.len().min(req.k) as u64);
        hits.truncate(req.k);
        stats.phases.evaluate = sw.lap();
        tb.event("budget verdict", || {
            vec![(
                "truncated".into(),
                truncation.map_or("no".into(), |r| r.to_string()),
            )]
        });
        done(hits, stats, truncation, tb)
    };

    if !result_cache.admits(req, level) {
        return run(stats, sw, tb);
    }
    // Immutable tree → generation 0; the index layout is fixed per engine.
    let key = ResultKey::new(0, &keywords, "slca", Layout::Plain, req);
    let mut ctx = Some((stats, sw, tb));
    let outcome = result_cache.cache.get_or_compute(key, || {
        let (mut stats, sw, tb) = ctx.take().expect("leader owns the query context");
        stats.result_cache_misses = 1;
        let result = run(stats, sw, tb);
        let store = match &result {
            Ok(resp) if resp.truncation.is_none() => Some((
                Arc::new(CachedSearch {
                    hits: resp.hits.clone(),
                    facets: Vec::new(),
                    facets_exact: true,
                }),
                cached_bytes(&resp.hits, xml_hit_bytes, &[]),
            )),
            _ => None,
        };
        (result, store)
    });
    let resp = match outcome {
        Looked::Computed(result) => result,
        Looked::Cached(v) => {
            let (mut stats, _sw, tb) = ctx.take().expect("a hit leaves the context untouched");
            stats.result_cache_hits = 1;
            done(v.hits.clone(), stats, None, tb)
        }
    };
    result_cache.publish(registry, "xml");
    resp
}

#[cfg(test)]
mod tests {
    use super::*;
    use kwdb_datasets::{generate_dblp, DblpConfig};
    use std::time::Duration;

    #[test]
    fn relational_engine_end_to_end() {
        let db = generate_dblp(&DblpConfig {
            n_papers: 60,
            n_authors: 30,
            ..Default::default()
        });
        let engine = RelationalEngine::new(db);
        let resp = engine
            .execute(&SearchRequest::new("data query").k(5))
            .unwrap();
        assert!(!resp.hits.is_empty());
        assert!(!resp.truncated());
        assert!(resp.hits.windows(2).all(|w| w[0].score >= w[1].score));
        assert!(resp.hits[0].rendered.contains('('));
        assert!(resp.stats.candidates_generated > 0);
        assert_eq!(resp.stats.cache_misses, 1);
        assert!(resp.stats.operators.tuples_scanned > 0);
    }

    /// The default worker count follows the host's cores, so pin each
    /// executor explicitly: the serial pipeline (1) and the parallel one
    /// (2, 8), whose WAND fast path serves the single-node full-mask CN.
    /// A query that produced hits has scanned tuples on every path, and the
    /// counters that do not depend on interleaving agree across paths.
    #[test]
    fn tuples_scanned_reported_for_every_worker_count() {
        let db = Arc::new(generate_dblp(&DblpConfig {
            n_papers: 60,
            n_authors: 30,
            ..Default::default()
        }));
        let mut serial: Option<(u64, Vec<f64>)> = None;
        for workers in [1, 2, 8] {
            let engine = RelationalEngine::with_config(
                Arc::clone(&db),
                RelationalConfig {
                    intra_query_workers: workers,
                    ..Default::default()
                },
            );
            let resp = engine
                .execute(&SearchRequest::new("data query").k(5))
                .unwrap();
            assert!(!resp.hits.is_empty(), "workers={workers}");
            assert!(resp.stats.operators.tuples_scanned > 0, "workers={workers}");
            let generated = resp.stats.candidates_generated;
            assert_eq!(
                resp.stats.cns_evaluated + resp.stats.cns_pruned,
                generated,
                "workers={workers}"
            );
            let scores: Vec<f64> = resp.hits.iter().map(|h| h.score).collect();
            let expected = serial.get_or_insert_with(|| (generated, scores.clone()));
            assert_eq!(*expected, (generated, scores), "workers={workers}");
        }
    }

    #[test]
    fn relational_engine_empty_and_unmatched() {
        let db = generate_dblp(&DblpConfig::default());
        let engine = RelationalEngine::new(db);
        let empty = engine.execute(&SearchRequest::new("").k(5)).unwrap();
        assert!(empty.hits.is_empty() && !empty.truncated());
        let unmatched = engine
            .execute(&SearchRequest::new("zzzzqqq data").k(5))
            .unwrap();
        assert!(unmatched.hits.is_empty() && !unmatched.truncated());
    }

    #[test]
    fn engine_shares_database_arc() {
        let db = Arc::new(generate_dblp(&DblpConfig {
            n_papers: 40,
            n_authors: 20,
            ..Default::default()
        }));
        let engine = RelationalEngine::new(Arc::clone(&db));
        // the caller keeps full access to the shared database
        assert_eq!(engine.database().table_count(), db.table_count());
        let resp = engine
            .execute(&SearchRequest::new("data query").k(3))
            .unwrap();
        assert!(!resp.hits.is_empty());
    }

    #[test]
    fn cn_plan_cache_hits_on_repeat() {
        let db = generate_dblp(&DblpConfig {
            n_papers: 60,
            n_authors: 30,
            ..Default::default()
        });
        // Result cache off: this test watches the *plan* cache, and a
        // repeat query must reach the planner to exercise it.
        let engine = RelationalEngine::with_config(
            db,
            RelationalConfig {
                result_cache: CacheConfig::disabled(),
                ..Default::default()
            },
        );
        let req = SearchRequest::new("data query").k(3);
        let first = engine.execute(&req).unwrap();
        assert_eq!((first.stats.cache_hits, first.stats.cache_misses), (0, 1));
        let second = engine.execute(&req).unwrap();
        assert_eq!((second.stats.cache_hits, second.stats.cache_misses), (1, 0));
        // keyword order must not defeat the cache
        let third = engine
            .execute(&SearchRequest::new("query data").k(3))
            .unwrap();
        assert_eq!(third.stats.cache_hits, 1);
    }

    #[test]
    fn graph_search_all_semantics() {
        let g = kwdb_datasets::graphs::generate_graph(&Default::default());
        // Result cache off: the repeat DistinctRoot query below must reach
        // the BLINKS index cache to observe its hit counter.
        let engine = GraphEngine::new(g).with_result_cache(CacheConfig::disabled());
        let run = |sem| {
            engine
                .execute(&SearchRequest::new("kw0 kw1").k(3).semantics(sem))
                .unwrap()
        };
        let exact = run(GraphSemantics::SteinerExact);
        let banks = run(GraphSemantics::Banks);
        let droot = run(GraphSemantics::DistinctRoot);
        assert!(!exact.hits.is_empty());
        assert!(!banks.hits.is_empty());
        assert!(!droot.hits.is_empty());
        assert!(
            banks.hits[0].cost >= exact.hits[0].cost - 1e-9,
            "DPBF is optimal"
        );
        assert!(droot.hits[0].cost >= exact.hits[0].cost - 1e-9);
        // second DistinctRoot query reuses the cached index
        let again = run(GraphSemantics::DistinctRoot);
        assert_eq!(again.stats.cache_hits, 1);
    }

    #[test]
    fn graph_engine_mutation_invalidates_within_staleness_bound() {
        let g = kwdb_datasets::graphs::generate_graph(&Default::default());
        // bound 0: rebuild on any change; result cache off so the repeat
        // query observes the BLINKS index cache, not the response cache
        let engine = GraphEngine::new(g).with_result_cache(CacheConfig::disabled());
        let run = |q: &str| {
            engine
                .execute(
                    &SearchRequest::new(q)
                        .k(3)
                        .semantics(GraphSemantics::DistinctRoot),
                )
                .unwrap()
        };
        let g0 = engine.generation();
        run("kw0 kw1");
        assert_eq!(run("kw0 kw1").stats.cache_hits, 1, "unchanged graph caches");

        let n = engine.add_node("person", "zzznew kw0");
        let neighbor = NodeId(0);
        engine.add_edge(n, neighbor, 1.0);
        assert!(engine.generation() > g0, "mutations bump the generation");
        let resp = run("zzznew");
        assert_eq!(
            resp.stats.cache_misses, 1,
            "bound 0 rebuilds after mutation"
        );
        assert!(!resp.hits.is_empty(), "new node is findable immediately");

        let outcome = engine.commit();
        assert_eq!(outcome.generation, engine.generation());
        assert_eq!(outcome.segments.realtime, 0, "commit seals realtime");
    }

    #[test]
    fn graph_engine_serves_stale_within_bound() {
        let g = kwdb_datasets::graphs::generate_graph(&Default::default());
        let engine = GraphEngine::new(g).with_staleness_bound(1_000);
        let run = |q: &str| {
            engine
                .execute(
                    &SearchRequest::new(q)
                        .k(3)
                        .semantics(GraphSemantics::DistinctRoot),
                )
                .unwrap()
        };
        run("kw0 kw1"); // builds the BLINKS index at the current generation
        engine.add_node("person", "zzznew kw0");
        // Within the bound the engine keeps serving the stale index: cheap,
        // and the brand-new keyword is simply not visible yet.
        let resp = run("zzznew");
        assert_eq!(resp.stats.cache_hits, 1, "stale-but-bounded index reused");
        assert!(resp.hits.is_empty());
    }

    #[test]
    fn spark_scoring_mode_works() {
        let db = generate_dblp(&DblpConfig {
            n_papers: 60,
            n_authors: 30,
            ..Default::default()
        });
        let engine = RelationalEngine::with_config(
            db,
            RelationalConfig {
                scoring: Scoring::Spark,
                ..Default::default()
            },
        );
        let resp = engine
            .execute(&SearchRequest::new("data query").k(5))
            .unwrap();
        assert!(!resp.hits.is_empty());
        assert!(resp.hits.windows(2).all(|w| w[0].score >= w[1].score));
    }

    #[test]
    fn xml_search_ranks_small_results_first() {
        let tree = kwdb_datasets::generate_bib_xml(&Default::default());
        let resp = XmlEngine::from_tree(tree)
            .execute(&SearchRequest::new("data query").k(10))
            .unwrap();
        if resp.hits.len() >= 2 {
            assert!(resp.hits[0].score >= resp.hits[1].score);
        }
    }

    #[test]
    fn zero_deadline_truncates_without_panicking() {
        let db = generate_dblp(&DblpConfig {
            n_papers: 60,
            n_authors: 30,
            ..Default::default()
        });
        let engine = RelationalEngine::new(db);
        let req = SearchRequest::new("data query")
            .k(5)
            .budget(Budget::unlimited().with_timeout(Duration::ZERO));
        let resp = engine.execute(&req).unwrap();
        assert!(resp.truncated());
        assert!(resp.hits.windows(2).all(|w| w[0].score >= w[1].score));
    }

    #[test]
    fn trait_objects_dispatch_all_engines() {
        let db = generate_dblp(&DblpConfig {
            n_papers: 60,
            n_authors: 30,
            ..Default::default()
        });
        let g = kwdb_datasets::graphs::generate_graph(&Default::default());
        let tree = kwdb_datasets::generate_bib_xml(&Default::default());
        let engines: Vec<(&str, Arc<dyn Engine>)> = vec![
            ("relational", Arc::new(RelationalEngine::new(db))),
            ("graph", Arc::new(GraphEngine::new(g))),
            ("xml", Arc::new(XmlEngine::from_tree(tree))),
        ];
        for (kind, engine) in engines {
            let resp = engine
                .execute(&SearchRequest::new("data query").k(3))
                .unwrap();
            for hit in &resp.hits {
                assert_eq!(hit.kind(), kind);
                assert!(hit.score().is_finite());
            }
        }
    }
}
