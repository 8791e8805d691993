// Package repro is a from-scratch Go implementation of WikiMatch, the
// multilingual infobox schema-matching system of Nguyen, Moreira, Nguyen,
// Nguyen and Freire, "Multilingual Schema Matching for Wikipedia
// Infoboxes" (PVLDB 5(2), 2011).
//
// The package is a facade over the repository's subsystems:
//
//   - a Wikipedia data model with wikitext and XML-dump parsing
//     (internal/wiki, internal/dump);
//   - a seeded synthetic multilingual Wikipedia standing in for the
//     paper's Portuguese/Vietnamese/English dumps (internal/synth);
//   - the WikiMatch matcher — LSI-ordered candidate alignment with
//     IntegrateMatches and ReviseUncertain (internal/core, internal/lsi,
//     internal/sim, internal/dict);
//   - the paper's baselines: LSI top-k, Bouma, and a COMA++-style
//     framework (internal/baselines);
//   - the evaluation machinery and the WikiQuery case study
//     (internal/eval, internal/query);
//   - runners for every table and figure in the paper
//     (internal/experiments).
//
// Quick start:
//
//	corpus, truth, _ := repro.GenerateCorpus(repro.SmallCorpus())
//	result := repro.Match(corpus, repro.PtEn)
//	for _, tr := range result.PerType {
//	    fmt.Println(tr.TypeA, "→", tr.CrossPairsSorted())
//	}
//	_ = truth
package repro

import (
	"context"
	"io"
	"net/http"
	"os"

	"repro/internal/audit"
	"repro/internal/baselines"
	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/dict"
	"repro/internal/dump"
	"repro/internal/eval"
	"repro/internal/experiments"
	"repro/internal/ingest"
	"repro/internal/multi"
	"repro/internal/protocol"
	"repro/internal/query"
	"repro/internal/router"
	"repro/internal/service"
	"repro/internal/sim"
	"repro/internal/store"
	"repro/internal/synth"
	"repro/internal/text"
	"repro/internal/wiki"
)

// Normalize lowercases, folds diacritics and collapses whitespace — the
// canonical form the matcher keys attribute names and titles by.
func Normalize(s string) string { return text.Normalize(s) }

// Core data model.
type (
	// Language is a Wikipedia language edition code ("en", "pt", "vi").
	Language = wiki.Language
	// LanguagePair names the two editions being matched.
	LanguagePair = wiki.LanguagePair
	// Article is a Wikipedia page with its infobox and cross-language
	// links.
	Article = wiki.Article
	// Infobox is the structured record of attribute–value pairs.
	Infobox = wiki.Infobox
	// Corpus is a multi-language article collection with the indices the
	// matcher needs.
	Corpus = wiki.Corpus
)

// Language editions and pairs used in the paper.
var (
	English    = wiki.English
	Portuguese = wiki.Portuguese
	Vietnamese = wiki.Vietnamese
	PtEn       = wiki.PtEn
	VnEn       = wiki.VnEn
)

// NewCorpus returns an empty corpus.
func NewCorpus() *Corpus { return wiki.NewCorpus() }

// ParsePage parses wikitext into an Article (infobox, categories,
// interlanguage links).
func ParsePage(lang Language, title, wikitext string) (*Article, error) {
	return wiki.ParsePage(lang, title, wikitext)
}

// Synthetic corpus generation.
type (
	// CorpusConfig controls the synthetic multilingual Wikipedia.
	CorpusConfig = synth.Config
	// GroundTruth carries the generator's alignment labels and entity
	// records.
	GroundTruth = synth.GroundTruth
)

// DefaultCorpus is the full-scale experiment configuration (the paper's
// dataset proportions at laptop scale).
func DefaultCorpus() CorpusConfig { return synth.DefaultConfig() }

// SmallCorpus is a fast configuration for tests and demos.
func SmallCorpus() CorpusConfig { return synth.SmallConfig() }

// GenerateCorpus builds the synthetic corpus and its ground truth.
func GenerateCorpus(cfg CorpusConfig) (*Corpus, *GroundTruth, error) {
	return synth.Generate(cfg)
}

// Multi-edition generation: a deterministic corpus over an arbitrary
// language list (ten or more editions, hyphenated long-tail codes,
// star-shaped cross-links through a hub) for exercising the pivot
// planner and the ingestion round trip.
type (
	// EditionsConfig sizes the multi-edition synthetic corpus.
	EditionsConfig = synth.EditionsConfig
	// EditionsTruth is its ground truth: canonical ids for every
	// localized type and attribute surface.
	EditionsTruth = synth.EditionsTruth
)

// DefaultEditionsCorpus is the 12-edition star configuration: English
// hub, no non-hub links, so every non-hub pair is transitive-only.
func DefaultEditionsCorpus() EditionsConfig { return synth.DefaultEditions() }

// GenerateEditions builds the multi-edition corpus and its truth.
func GenerateEditions(cfg EditionsConfig) (*Corpus, *EditionsTruth, error) {
	return synth.Editions(cfg)
}

// Real-dump ingestion (internal/ingest): streaming, bounded-memory
// loading of DBpedia infobox-properties / interlanguage-links N-Triples
// dumps and MediaWiki XML dumps into a corpus, with transparent
// gzip/bzip2 decoding, per-reason skip accounting and a language set
// driven entirely by the data.
type (
	// IngestSource is one dump input (language, format, path or reader).
	IngestSource = ingest.Source
	// IngestOptions configures an ingestion run (language filter,
	// workers, dry run, progress).
	IngestOptions = ingest.Options
	// IngestResult is a completed run: the corpus plus per-language
	// statistics.
	IngestResult = ingest.Result
	// IngestLangStats counts one edition's ingestion outcome.
	IngestLangStats = ingest.LangStats
	// IngestProgress reports one completed source file.
	IngestProgress = ingest.Progress
)

// Ingestion source formats.
const (
	// IngestTTL is a DBpedia N-Triples/TTL dump.
	IngestTTL = ingest.FormatTTL
	// IngestXML is a MediaWiki XML page dump.
	IngestXML = ingest.FormatXML
)

// IngestDir ingests every recognized dump file in a directory
// (<lang>-infobox-properties*.ttl, <lang>-interlanguage-links*.ttl,
// <lang>.xml, each optionally .gz/.bz2) into one corpus.
func IngestDir(ctx context.Context, dir string, opts IngestOptions) (*IngestResult, error) {
	return ingest.Dir(ctx, dir, opts)
}

// IngestRun ingests an explicit source list into one corpus.
func IngestRun(ctx context.Context, sources []IngestSource, opts IngestOptions) (*IngestResult, error) {
	return ingest.Run(ctx, sources, opts)
}

// ScanDumpDir discovers the dump sources IngestDir would load.
func ScanDumpDir(dir string) ([]IngestSource, error) { return ingest.ScanDir(dir) }

// WritePropertiesDump renders one edition's infoboxes as a DBpedia
// infobox-properties N-Triples dump — the inverse of IngestRun.
func WritePropertiesDump(w io.Writer, c *Corpus, lang Language) error {
	return ingest.WriteProperties(w, c, lang)
}

// WriteLinksDump renders one edition's cross-language links as a
// DBpedia interlanguage-links N-Triples dump (owl:sameAs).
func WriteLinksDump(w io.Writer, c *Corpus, lang Language) error {
	return ingest.WriteLinks(w, c, lang)
}

// DefaultHub is the hub edition an all-pairs batch resolves to when none
// is requested: English if the corpus has it, else the lexicographically
// first edition.
func DefaultHub(langs []Language) Language { return multi.DefaultHub(langs) }

// Dump I/O.

// LoadDump parses a MediaWiki XML dump into the corpus; lang overrides
// the dump's own language hint when non-empty.
func LoadDump(c *Corpus, r io.Reader, lang Language) (dump.LoadResult, error) {
	return dump.LoadCorpus(c, r, lang)
}

// WriteDump renders one language edition as a MediaWiki XML dump.
func WriteDump(w io.Writer, c *Corpus, lang Language) error {
	return dump.WriteCorpus(w, c, lang)
}

// Matching.
type (
	// MatcherConfig holds WikiMatch's thresholds and ablation switches.
	MatcherConfig = core.Config
	// Matcher runs WikiMatch.
	Matcher = core.Matcher
	// MatchResult is a full run over one language pair.
	MatchResult = core.Result
	// TypeMatchResult is the alignment outcome for one entity type.
	TypeMatchResult = core.TypeResult
	// Dictionary is a cross-language-link title dictionary.
	Dictionary = dict.Dictionary
)

// DefaultMatcherConfig returns the paper's configuration (Tsim = 0.6,
// TLSI = 0.1).
func DefaultMatcherConfig() MatcherConfig { return core.DefaultConfig() }

// NewMatcher creates a matcher.
func NewMatcher(cfg MatcherConfig) *Matcher { return core.NewMatcher(cfg) }

// Match runs WikiMatch with the paper's default configuration. It is a
// thin wrapper over a throwaway Session; callers doing more than one
// match should create a Session themselves so the per-pair dictionary
// and per-type LSI artifacts are built once and reused.
func Match(c *Corpus, pair LanguagePair) *MatchResult {
	res, _ := NewSession(c).Match(context.Background(), pair)
	return res
}

// Sessions: the long-lived service API.
type (
	// Session is a long-lived matching service over one corpus: it caches
	// per-pair dictionaries, entity-type alignments and per-type LSI
	// artifacts so repeated and overlapping matches reuse work. All
	// methods are safe for concurrent use and honour context
	// cancellation.
	Session = service.Session
	// SessionOption adjusts a session's matcher configuration.
	SessionOption = service.Option
	// SessionCacheStats is a snapshot of a session's artifact cache.
	SessionCacheStats = service.CacheStats
	// TypeUpdate is one streamed per-type result from Session.MatchStream.
	TypeUpdate = service.TypeUpdate
	// ArticleKey identifies one article (language + title) in a corpus —
	// the unit CorpusDelta removals name.
	ArticleKey = wiki.Key
	// CorpusDelta is a batch of corpus edits (whole-article upserts and
	// removals) for Session.ApplyDelta.
	CorpusDelta = wiki.Delta
	// DeltaResult reports what an applied delta changed in the corpus and
	// which cached artifacts it invalidated.
	DeltaResult = service.DeltaResult
)

// NewSession creates a matching session over the corpus. Options start
// from the paper's default configuration.
func NewSession(c *Corpus, opts ...SessionOption) *Session {
	return service.New(c, opts...)
}

// Session options (functional configuration, replacing MatcherConfig
// struct literals at call sites).
var (
	// WithConfig replaces the whole matcher configuration.
	WithConfig = service.WithConfig
	// WithTSim sets the certain-match threshold Tsim (paper: 0.6).
	WithTSim = service.WithTSim
	// WithTLSI sets the LSI correlation threshold TLSI (paper: 0.1).
	WithTLSI = service.WithTLSI
	// WithTEg sets the inductive-grouping threshold of ReviseUncertain.
	WithTEg = service.WithTEg
	// WithLSIRank sets the number of latent dimensions (the paper's f).
	WithLSIRank = service.WithLSIRank
	// WithSeed sets the seed driving the RandomOrder ablation shuffle.
	WithSeed = service.WithSeed
	// WithExactSVD forces the exact dense Jacobi SVD inside LSI.
	WithExactSVD = service.WithExactSVD
	// WithoutDictionary disables dictionary translation inside vsim.
	WithoutDictionary = service.WithoutDictionary
)

// All-pairs multilingual matching: Session.MatchAll / MatchAllStream
// plan the language-pair DAG (pivot through a hub edition, or direct
// all-pairs), run it on a bounded worker pool over the session's shared
// artifact cache, and merge the pairwise correspondences into
// cross-language attribute clusters with transitive derivation,
// agreement scoring and direct-vs-transitive conflict detection
// (internal/multi).
type (
	// MultiOptions configures an all-pairs batch (mode, hub, workers).
	MultiOptions = multi.Options
	// MultiMode selects pivot or direct pair coverage.
	MultiMode = multi.Mode
	// BatchResult is a completed all-pairs run: per-pair outcomes plus
	// the merged correspondence clusters.
	BatchResult = multi.BatchResult
	// BatchPairOutcome is one pair's result or failure within a batch.
	BatchPairOutcome = multi.PairOutcome
	// BatchUpdate is one progress event from a streaming batch.
	BatchUpdate = multi.Update
	// Cluster is one cross-language attribute correspondence cluster.
	Cluster = multi.Cluster
	// ClusterAttr identifies an attribute node (language, type, name).
	ClusterAttr = multi.Attr
	// ClusterCorrespondence is one (direct or transitive) cross-language
	// equivalence inside a cluster.
	ClusterCorrespondence = multi.Correspondence
	// ClusterConflict is a direct-vs-transitive disagreement.
	ClusterConflict = multi.Conflict
)

// Batch modes.
const (
	// ModePivot matches every language against the hub and derives the
	// rest transitively (N−1 runs).
	ModePivot = multi.ModePivot
	// ModeDirect matches every unordered pair head on (N(N−1)/2 runs)
	// and cross-checks direct matches against transitive chains.
	ModeDirect = multi.ModeDirect
)

// ParseMultiMode parses "pivot" or "direct".
func ParseMultiMode(s string) (MultiMode, error) { return multi.ParseMode(s) }

// Cross-edition value auditing: compare every cross-linked entity's
// values across the matched attribute clusters with typed normalizers
// (numbers, dates, units, currencies) and rank the disagreements
// (internal/audit). The service surface is POST /v1/audit and
// /v1/audit/stream; in process, Audit runs over any cluster set.
type (
	// AuditOptions tunes a report (severity floor, length cap).
	AuditOptions = audit.Options
	// AuditReport is a ranked cross-edition inconsistency report.
	AuditReport = audit.Report
	// AuditFinding is one reported inconsistency.
	AuditFinding = audit.Finding
	// AuditRequest is the typed /v1/audit request.
	AuditRequest = protocol.AuditRequest
	// AuditResponse answers /v1/audit.
	AuditResponse = protocol.AuditResponse
	// AuditFindingJSON is the wire shape of one ranked inconsistency.
	AuditFindingJSON = protocol.AuditFinding
)

// Audit compares values across editions for every cross-linked entity,
// using the correspondence clusters of an all-pairs batch
// (Session.MatchAll / BuildClusters), and returns the ranked
// inconsistency report.
func Audit(c *Corpus, clusters []Cluster, opts AuditOptions) *AuditReport {
	return audit.Run(c, clusters, opts)
}

// AuditEvalResult scores the audit detector against the generator's
// injection ledger.
type AuditEvalResult = audit.EvalResult

// AuditEvalCorpus is SmallCorpus with rendering noise disabled and
// known inconsistencies injected (ledgered in the ground truth) — the
// configuration the audit detector's precision/recall is scored
// against.
func AuditEvalCorpus() CorpusConfig { return synth.AuditEvalConfig() }

// EvaluateAudit scores a report's findings against the ground truth's
// injection ledger: precision over findings at or above minSeverity,
// recall over all injections.
func EvaluateAudit(findings []AuditFinding, truth *GroundTruth, minSeverity float64) AuditEvalResult {
	return audit.Evaluate(findings, truth, minSeverity)
}

// Persistence: the offline/online split. A warm session's artifact
// cache can be saved as a versioned binary snapshot (Session.Save,
// internal/store format) and restored in another process, so servers
// boot with precomputed dictionaries and LSI models instead of
// rebuilding them from the corpus.

// RestoreSession builds a warm session from a snapshot written by
// Session.Save. The snapshot must have been built from the same corpus
// (validated by fingerprint) and with the same artifact-shaping
// configuration (dictionary use, LSI rank, SVD path); otherwise a typed
// error from internal/store is returned and nothing is loaded. Matching
// thresholds may be adjusted freely via opts. A restored session's
// Match results are byte-identical to a cold build's.
func RestoreSession(c *Corpus, r io.Reader, opts ...SessionOption) (*Session, error) {
	return service.Restore(c, r, opts...)
}

// SaveSessionSnapshot writes the session's completed artifact cache to
// path atomically (temp file + fsync + rename): a crash mid-write never
// leaves a partial snapshot behind.
func SaveSessionSnapshot(s *Session, path string) error {
	return store.WriteFile(path, s.Save)
}

// RestoreSessionFromFile is RestoreSession over a snapshot file.
func RestoreSessionFromFile(c *Corpus, path string, opts ...SessionOption) (*Session, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return service.Restore(c, f, opts...)
}

// RestoreSessionFromFileFiltered is RestoreSessionFromFile keeping only
// the snapshot slice the keep predicate owns — how a shard replica
// warm-starts with just its pairs (see ShardOwned). The corpus itself
// stays full; only the artifact cache is sharded, so the snapshot's
// fingerprint and configuration are validated exactly as in an
// unfiltered restore.
func RestoreSessionFromFileFiltered(c *Corpus, path string, keep func(LanguagePair) bool, opts ...SessionOption) (*Session, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return service.RestoreFiltered(c, f, keep, opts...)
}

// Wire protocol v1: the typed request/response API served under /v1/
// and spoken by the client SDK. One MatchRequest shape drives pair,
// single-type and all-pairs matching, unary or streaming, with a shared
// validation path across the in-process Session, the HTTP layer and the
// CLI; errors are structured envelopes with stable codes.
type (
	// MatchRequest is the typed request of protocol v1.
	MatchRequest = protocol.MatchRequest
	// MatchResponse answers a pair or single-type match.
	MatchResponse = protocol.MatchResponse
	// MatchAllResponse answers an all-pairs batch.
	MatchAllResponse = protocol.MatchAllResponse
	// StreamLine is one progress line of a streaming request.
	StreamLine = protocol.StreamLine
	// TypeMatchResultJSON is the wire form of one entity type's
	// alignment outcome.
	TypeMatchResultJSON = protocol.TypeResult
	// APIError is the structured protocol error (code / message /
	// retryable / details); it is both the wire envelope's payload and
	// the error value returned in process.
	APIError = protocol.Error
)

// ProtocolVersion is the wire protocol version ("v1").
const ProtocolVersion = protocol.Version

// The stable protocol error codes.
const (
	ErrCodeInvalidArgument  = protocol.CodeInvalidArgument
	ErrCodeNotFound         = protocol.CodeNotFound
	ErrCodeMethodNotAllowed = protocol.CodeMethodNotAllowed
	ErrCodePayloadTooLarge  = protocol.CodePayloadTooLarge
	ErrCodeOverloaded       = protocol.CodeOverloaded
	ErrCodeCanceled         = protocol.CodeCanceled
	ErrCodeDeadlineExceeded = protocol.CodeDeadlineExceeded
	ErrCodeInternal         = protocol.CodeInternal
)

// The client SDK: a typed HTTP client for a running wikimatchd and an
// in-process backend over a Session serving the same interface.
type (
	// APIClient speaks protocol v1 to a wikimatchd base URL: unary
	// calls, a streaming iterator, and retries on retryable codes.
	APIClient = client.Client
	// APIClientOption adjusts an APIClient.
	APIClientOption = client.Option
	// Backend is the protocol surface shared by APIClient and
	// LocalBackend.
	Backend = client.Backend
	// LocalBackend serves the Backend interface from an in-process
	// Session.
	LocalBackend = client.Local
	// APIStream iterates a streaming response line by line.
	APIStream = client.Stream
)

// NewAPIClient creates a protocol v1 client for a wikimatchd base URL.
func NewAPIClient(base string, opts ...APIClientOption) (*APIClient, error) {
	return client.New(base, opts...)
}

// NewLocalBackend wraps a session as a Backend, so code written against
// the protocol runs in process without a server.
func NewLocalBackend(s *Session) LocalBackend { return client.NewLocal(s) }

// Client SDK options.
var (
	// WithHTTPClient replaces the SDK's underlying *http.Client.
	WithHTTPClient = client.WithHTTPClient
	// WithRetries sets the retry budget and base backoff delay.
	WithRetries = client.WithRetries
	// WithHedge arms hedged read-only unary requests: a second attempt
	// fires when the first is still pending after the given delay.
	WithHedge = client.WithHedge
)

// HTTP serving options (the middleware stack of NewHTTPHandler).
type HTTPHandlerOption = service.HandlerOption

var (
	// WithMaxConcurrent bounds concurrently served requests; excess load
	// is shed with 429 + Retry-After.
	WithMaxConcurrent = service.WithMaxConcurrent
	// WithMaxStreams bounds concurrently served NDJSON streams.
	WithMaxStreams = service.WithMaxStreams
	// WithRequestTimeout bounds each non-streaming request.
	WithRequestTimeout = service.WithRequestTimeout
	// WithMaxBodyBytes caps request body size.
	WithMaxBodyBytes = service.WithMaxBodyBytes
	// WithStreamWriteTimeout bounds each NDJSON line write.
	WithStreamWriteTimeout = service.WithStreamWriteTimeout
	// WithAccessLog enables per-request access logging.
	WithAccessLog = service.WithAccessLog
	// WithShardGate marks the handler as one shard of a fleet: requests
	// for pairs outside the ownership predicate answer 503 unavailable
	// pointing the caller back at the router.
	WithShardGate = service.WithShardGate
)

// NewHTTPHandler builds the wikimatchd HTTP API over a session: the
// typed /v1/ protocol (POST JSON + NDJSON streaming, structured
// errors) and the middleware stack (request IDs, access logging,
// per-request timeouts, load shedding, panic recovery, /v1/metrics
// counters) around it. Any other path answers the not_found envelope.
// See cmd/wikimatchd.
func NewHTTPHandler(s *Session, opts ...HTTPHandlerOption) http.Handler {
	return service.NewHandler(s, opts...)
}

// The fleet layer: a router coordinating N wikimatchd shard replicas
// behind the same /v1 surface a single binary serves. A deterministic
// shard map (ShardForPair) assigns every canonical language pair to one
// replica; the router routes unary requests to their owner and
// scatter-gathers all-pairs batches across the fleet into responses
// byte-identical to a single binary's. See cmd/wikimatchd's -router and
// -shard-index modes.
type (
	// FleetRouter fronts the shard replicas; Handler() serves /v1/.
	FleetRouter = router.Router
	// FleetRouterOption adjusts a FleetRouter.
	FleetRouterOption = router.Option
)

// NewFleetRouter builds a router over the given shard addresses
// (host:port or full URLs), in shard-index order.
func NewFleetRouter(addrs []string, opts ...FleetRouterOption) (*FleetRouter, error) {
	return router.New(addrs, opts...)
}

// Fleet router options.
var (
	// WithFleetClientOptions configures the per-shard SDK clients.
	WithFleetClientOptions = router.WithClientOptions
	// WithFleetHandlerOptions configures the router's own middleware.
	WithFleetHandlerOptions = router.WithHandlerOptions
	// WithFleetHealthInterval sets the background health-poll cadence
	// (negative disables the poller).
	WithFleetHealthInterval = router.WithHealthInterval
	// WithFleetProbeTimeout bounds each shard health probe.
	WithFleetProbeTimeout = router.WithProbeTimeout
	// WithFleetLogger directs router logs.
	WithFleetLogger = router.WithLogger
)

// ShardForPair maps a pair to its owning shard among count replicas —
// the deterministic, orientation-independent fleet shard map.
func ShardForPair(pair LanguagePair, count int) int { return router.ShardFor(pair, count) }

// ShardOwned is shard index's ownership predicate among count replicas:
// the keep function for RestoreSessionFromFileFiltered and the gate for
// WithShardGate.
func ShardOwned(index, count int) func(LanguagePair) bool { return router.Owned(index, count) }

// ParseLanguagePair parses a "pt-en"-style pair string ("vn-en" is an
// alias for Vietnamese–English).
func ParseLanguagePair(s string) (LanguagePair, error) { return protocol.ParsePair(s) }

// MatchEntityTypes identifies equivalent entity types across a pair via
// cross-language-link voting (Section 3.1).
func MatchEntityTypes(c *Corpus, pair LanguagePair) [][2]string {
	return core.MatchEntityTypes(c, pair)
}

// BuildDictionary derives the title-translation dictionary from the
// corpus's cross-language links.
func BuildDictionary(c *Corpus, from, to Language) *Dictionary {
	return dict.Build(c, from, to)
}

// Baselines.
type (
	// BoumaConfig tunes the Bouma et al. aligner.
	BoumaConfig = baselines.BoumaConfig
	// COMAConfig selects a COMA++-style configuration.
	COMAConfig = baselines.COMAConfig
	// LabelTranslator simulates the external machine-translation system
	// the COMA "+G" configurations translate attribute labels with.
	LabelTranslator = dict.LabelTranslator
)

// DefaultBoumaConfig mirrors the conservative, precision-first behaviour
// the paper reports for the Bouma et al. aligner.
func DefaultBoumaConfig() BoumaConfig { return baselines.DefaultBoumaConfig() }

// COMAConfigs enumerates the six COMA++ configurations of Figure 7 at a
// selection threshold.
func COMAConfigs(threshold float64) []COMAConfig { return baselines.COMAConfigs(threshold) }

// NewLabelTranslator creates the simulated label machine-translation
// system with the given error rate and deterministic seed.
func NewLabelTranslator(errorRate float64, seed int64) *LabelTranslator {
	return dict.NewLabelTranslator(errorRate, seed)
}

// RunBouma runs the Bouma et al. cross-lingual template aligner over one
// matched entity-type pair and returns the derived correspondences.
func RunBouma(c *Corpus, pair LanguagePair, typeA, typeB string, cfg BoumaConfig) Correspondences {
	return baselines.Bouma(c, pair, typeA, typeB, cfg)
}

// RunCOMA runs one COMA++-style configuration over a matched entity-type
// pair: it builds the pair's translation dictionary and similarity
// workspace, then applies the configuration's name/instance matchers. lt
// is the simulated label translator used by the "+G" configurations and
// may be nil. To evaluate several configurations (the Figure 7 sweep),
// use RunCOMASweep, which builds the shared artifacts once.
func RunCOMA(c *Corpus, pair LanguagePair, typeA, typeB string, lt *LabelTranslator, cfg COMAConfig) Correspondences {
	return RunCOMASweep(c, pair, typeA, typeB, lt, cfg)[0]
}

// RunCOMASweep runs several COMA++-style configurations over one matched
// entity-type pair, building the pair's dictionary and similarity
// workspace once and reusing them across configurations. Results are
// returned in configuration order.
func RunCOMASweep(c *Corpus, pair LanguagePair, typeA, typeB string, lt *LabelTranslator, cfgs ...COMAConfig) []Correspondences {
	d := dict.Build(c, pair.A, pair.B)
	td := sim.BuildTypeData(c, pair, typeA, typeB, d)
	out := make([]Correspondences, len(cfgs))
	for i, cfg := range cfgs {
		out[i] = baselines.COMA(td, lt, cfg)
	}
	return out
}

// Evaluation.
type (
	// Correspondences maps source attributes to their aligned targets.
	Correspondences = eval.Correspondences
	// PRF bundles precision, recall and F-measure.
	PRF = eval.PRF
)

// WeightedScores computes the paper's weighted precision/recall/F
// (Equations 1–4).
func WeightedScores(derived, truth Correspondences, freqA, freqB map[string]float64) PRF {
	return eval.Weighted(derived, truth, freqA, freqB)
}

// MacroScores computes the unweighted variant (Appendix B).
func MacroScores(derived, truth Correspondences) PRF {
	return eval.Macro(derived, truth)
}

// BCubedScores computes B-cubed precision/recall of a predicted
// clustering against a gold one — the cluster-level counterpart of the
// pairwise metrics, used to evaluate all-pairs correspondence clusters.
func BCubedScores(pred, gold [][]string) PRF { return eval.BCubed(pred, gold) }

// PairCountingScores computes pair-counting cluster precision/recall:
// co-clustered item pairs in pred scored against gold.
func PairCountingScores(pred, gold [][]string) PRF { return eval.PairCounting(pred, gold) }

// Querying (the Section 5 case study).
type (
	// Query is a parsed c-query.
	Query = query.Query
	// QueryEngine executes c-queries over one language edition.
	QueryEngine = query.Engine
	// QueryAnswer is one ranked result.
	QueryAnswer = query.Answer
	// CGSeries is a named cumulative-gain curve.
	CGSeries = query.CGSeries
)

// ParseQuery parses c-query syntax: `filme(título=?, receita>10000000)
// and ator(ocupação="político")`.
func ParseQuery(s string) (*Query, error) { return query.Parse(s) }

// NewQueryEngine indexes a corpus for querying in one language.
func NewQueryEngine(c *Corpus, lang Language) *QueryEngine {
	return query.NewEngine(c, lang)
}

// TranslateQuery renders a query into the match result's target language
// through the derived correspondences, relaxing untranslatable
// constraints (Section 5).
func TranslateQuery(q *Query, res *MatchResult) query.Translation {
	return query.Translate(q, res)
}

// CaseStudy runs the Table 4 workload monolingually and translated, and
// returns the four cumulative-gain curves of Figure 4.
func CaseStudy(c *Corpus, truth *GroundTruth, resPt, resVn *MatchResult, k int) ([]CGSeries, error) {
	return query.RunCaseStudy(c, truth, resPt, resVn, k)
}

// Experiments.
type (
	// Experiments is the harness reproducing every table and figure.
	Experiments = experiments.Setup
)

// NewExperiments generates a corpus and prepares the per-type evaluation
// units for all experiments.
func NewExperiments(cfg CorpusConfig) (*Experiments, error) {
	return experiments.NewSetup(cfg)
}

// RenderAllExperiments writes every table and figure to w.
func RenderAllExperiments(w io.Writer, s *Experiments, cfg MatcherConfig) error {
	return experiments.RenderAll(w, s, cfg)
}
