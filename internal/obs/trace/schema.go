package trace

// Canonical span and event names. The producers (core.Detector,
// sim.Network, ranging.Session) and the consumer (cmd/crtrace) agree on
// these; DESIGN.md §11 documents the full per-name attribute schema.
const (
	// SpanSessionRound is one ranging.Session.Run: a full concurrent
	// round from the API's point of view. Begin attrs carry the trial
	// seed, the session round counter, the scheme capacity, and the
	// per-responder ground truth (AttrTruth); end attrs carry the
	// outcome (AttrStatus, AttrMeasurements, anchor identity, d_TWR).
	SpanSessionRound = "session.round"
	// SpanSimRound is one sim protocol round (RunConcurrentRound).
	// End attrs carry the locked source, decode outcome, SIR, and the
	// simulator-side ground truth.
	SpanSimRound = "sim.round"
	// SpanCampaign wraps a simulator campaign (scheduled SS-TWR or
	// concurrent); its protocol rounds nest under it.
	SpanCampaign = "sim.campaign"
	// SpanDetect is one core.Detector.Detect call; EventDetectRound
	// instants nest inside it.
	SpanDetect = "detect"
	// SpanDetectBatch is one core.BatchDetector.DetectBatch call. Begin
	// attrs carry the batch size and the worker-pool size; end attrs carry
	// the per-item error and total response counts. Worker detectors'
	// per-item spans open as roots, so they do not nest under it.
	SpanDetectBatch = "detect.batch"
	// EventDetectRound is one search-and-subtract round: the candidate
	// peak, per-template matched-filter scores, margin, accept/reject
	// reason, and residual energy after subtraction.
	EventDetectRound = "detect.round"
	// SpanSwarmRound is one sim.Swarm concurrent-ranging round: an
	// initiator's INIT and the slotted responses it provokes. Begin attrs
	// carry the swarm seed, the initiating node, and the global round
	// counter; end attrs carry the outcome (AttrStatus: ok, empty, or
	// slot-collision) and the response/resolved/collision counts.
	SpanSwarmRound = "swarm.round"
	// SpanEngineCoordinator, SpanEngineWorker, SpanEngineWindow, and
	// SpanEngineShard are the sharded-engine profiler's synthesized
	// timeline spans (sim.EngineProfiler.WriteChromeTrace): one
	// coordinator root carrying barrier-window child slices, and one root
	// per worker-pool slot carrying that slot's shard-window executions.
	SpanEngineCoordinator = "engine.coordinator"
	SpanEngineWorker      = "engine.worker"
	SpanEngineWindow      = "engine.window"
	SpanEngineShard       = "engine.shard"
)

// Attribute keys shared across producers and crtrace. Per-responder ground
// truth and per-measurement outcomes are arrays of objects using the
// nested keys below.
const (
	// AttrSeed is the deterministic simulation seed of the trial.
	AttrSeed = "seed"
	// AttrRound is the session's 0-based round counter.
	AttrRound = "round"
	// AttrStatus is "ok" or "error" on end events; AttrError carries the
	// message in the error case.
	AttrStatus = "status"
	AttrError  = "error"
	// AttrTruth is the ground-truth array: one object per responder with
	// AttrID, AttrSlot, AttrShape, AttrDistM.
	AttrTruth = "truth"
	// AttrMeasurements is the outcome array: one object per resolved
	// measurement with AttrID, AttrSlot, AttrShape, AttrDistM,
	// AttrTrueM, AttrHasTruth, AttrAnchor.
	AttrMeasurements = "measurements"
	// Nested keys of truth/measurement objects.
	AttrID       = "id"
	AttrSlot     = "slot"
	AttrShape    = "shape"
	AttrDistM    = "dist_m"
	AttrTrueM    = "true_m"
	AttrHasTruth = "has_truth"
	AttrAnchor   = "anchor"
	// AttrCapacity is the scheme capacity N_RPM · N_PS of the session.
	AttrCapacity = "capacity"
	// Detect-round keys: the accept/reject reason, the candidate peak's
	// up-sampled grid index, delay (seconds), amplitude magnitude,
	// template index, peak-to-threshold margin (dB), the per-template
	// matched-filter peak scores, and the residual-to-input energy
	// fraction after the round's subtraction.
	AttrReason       = "reason"
	AttrPeakIndex    = "peak_index"
	AttrDelayS       = "delay_s"
	AttrAmplitude    = "amp"
	AttrTemplate     = "template"
	AttrMarginDB     = "margin_db"
	AttrScores       = "scores"
	AttrResidualFrac = "residual_frac"
	// Swarm-round keys: the initiating node and the round's response
	// accounting (responses heard, resolved distinctly, lost to slot
	// collisions).
	AttrNode       = "node"
	AttrResponses  = "responses"
	AttrResolved   = "resolved"
	AttrCollisions = "collisions"
	// Engine-profiler timeline keys: worker-pool slot, shard index, and
	// barrier-window index.
	AttrWorker = "worker"
	AttrShard  = "shard"
	AttrWindow = "window"
)

// Detect-round accept/reject reasons and Detect stop reasons
// (AttrReason on EventDetectRound instants and SpanDetect end events).
const (
	// ReasonAccepted marks a round whose candidate became a response.
	ReasonAccepted = "accepted"
	// ReasonBelowThreshold marks the stopping round: the best remaining
	// peak fell below the detection threshold.
	ReasonBelowThreshold = "below-threshold"
	// ReasonZeroAmplitude marks a degenerate candidate with zero
	// estimated amplitude.
	ReasonZeroAmplitude = "zero-amplitude"
	// ReasonNoCandidate marks a round in which every sample of every
	// template was suppressed or zero.
	ReasonNoCandidate = "no-candidate"
	// ReasonMaxResponses marks a Detect that stopped at MaxResponses.
	ReasonMaxResponses = "max-responses"
	// ReasonMaxIterations marks a Detect that ran out of its iteration
	// budget.
	ReasonMaxIterations = "max-iterations"
)
