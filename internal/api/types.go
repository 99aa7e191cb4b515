package api

import "repro/internal/core"

// Verdict values shared by every surface (HTTP API, SDK, CLI). The
// thresholds that map a bit-agreement fraction onto them live in
// internal/core (PresentThreshold, PartialThreshold); these are the wire
// spellings.
const (
	VerdictPresent = "present"
	VerdictPartial = "partial"
	VerdictAbsent  = "absent"
)

// Streamable request content types: a request body with one of these
// media types is row data that flows straight into the detection
// pipeline, never materialized in a request struct.
const (
	ContentTypeCSV    = "text/csv"
	ContentTypeNDJSON = "application/x-ndjson"
	ContentTypeJSON   = "application/json"
)

// ContentTypeShard is the media type of a POST /v2/internal/scan body: a
// compact JSON ShardScanRequest header with Data empty, followed directly
// by the shard's raw rows in the header's Format (see ShardScanRequest).
const ContentTypeShard = "application/x-wm-shard"

// WatermarkRequest is the POST /v1/watermark and /v2/watermark body, and
// the payload of a "watermark" job.
type WatermarkRequest struct {
	// Schema is the schema-spec string, e.g.
	// "Visit_Nbr:int!key, Item_Nbr:int:categorical".
	Schema string `json:"schema"`
	// Format of Data: "csv" (default) or "jsonl".
	Format string `json:"format,omitempty"`
	// Data is the relation payload.
	Data string `json:"data"`
	// Secret is the owner's master passphrase.
	Secret string `json:"secret"`
	// Attribute is the categorical attribute to watermark.
	Attribute string `json:"attribute"`
	// KeyAttr optionally overrides the key attribute.
	KeyAttr string `json:"key_attr,omitempty"`
	// WM is the watermark bit string.
	WM string `json:"wm"`
	// E is the fitness parameter (default 60).
	E uint64 `json:"e,omitempty"`
	// Domain optionally fixes the value catalog.
	Domain []string `json:"domain,omitempty"`
	// FrequencyChannel additionally embeds into the histogram.
	FrequencyChannel bool `json:"frequency_channel,omitempty"`
	// MaxAlterationFraction bounds total data change (0 = unlimited).
	// Forces a sequential pass — the quality budget is order-dependent.
	MaxAlterationFraction float64 `json:"max_alteration_fraction,omitempty"`
	// Workers overrides the server's pipeline worker count for this job.
	Workers int `json:"workers,omitempty"`
}

// WatermarkResponse is the watermark reply.
type WatermarkResponse struct {
	// ID is the stored certificate's identifier; pass it to verify.
	ID string `json:"id"`
	// Data is the watermarked relation in the request's format.
	Data string `json:"data"`
	// Tuples, Fit, Altered, Bandwidth summarize the embedding pass.
	Tuples         int     `json:"tuples"`
	Fit            int     `json:"fit"`
	Altered        int     `json:"altered"`
	AlterationRate float64 `json:"alteration_rate"`
	Bandwidth      int     `json:"bandwidth"`
	// FrequencyMoved counts tuples moved by the frequency channel.
	FrequencyMoved int `json:"frequency_moved,omitempty"`
}

// VerifyRequest is the POST /v1/verify and /v2/verify body. Exactly one
// of ID (a stored certificate) or Record (an inline certificate JSON
// object, core.Record-shaped) must be set.
type VerifyRequest struct {
	ID string `json:"id,omitempty"`
	// Record carries an inline certificate — the owner's core.Record,
	// which is itself the JSON certificate format.
	Record *core.Record `json:"record,omitempty"`
	// Schema/Format/Data carry the suspect relation, as in watermark.
	Schema  string `json:"schema"`
	Format  string `json:"format,omitempty"`
	Data    string `json:"data"`
	Workers int    `json:"workers,omitempty"`
}

// VerifyResponse is the verify reply.
type VerifyResponse struct {
	// Match is the fraction of watermark bits recovered; 1.0 is perfect.
	Match float64 `json:"match"`
	// Detected is the recovered bit string.
	Detected string `json:"detected"`
	// Verdict is VerdictPresent, VerdictPartial or VerdictAbsent at the
	// shared core thresholds (>= 0.9, >= 0.7).
	Verdict string `json:"verdict"`
	// RemapRecovered notes a Section 4.5 inverse-mapping recovery.
	RemapRecovered bool `json:"remap_recovered,omitempty"`
	// FrequencyMatch is the secondary channel's agreement (-1 = unused).
	FrequencyMatch float64 `json:"frequency_match"`
	// FalsePositiveProb is the chance of a full match on unmarked data.
	FalsePositiveProb float64 `json:"false_positive_prob"`
}

// BatchVerifyRequest is the JSON form of the POST /v1/verify/batch and
// /v2/verify/batch body, and the payload of a "verify_batch" job. The
// same endpoints also accept a RAW streamed suspect (Content-Type
// text/csv or application/x-ndjson) with records/schema/workers as query
// parameters — the corpus-scale path, since the dataset is never held in
// a request struct.
type BatchVerifyRequest struct {
	// Records selects stored certificate IDs to verify against; empty
	// means every stored certificate.
	Records []string `json:"records,omitempty"`
	// Schema/Format/Data carry the suspect relation, as in verify.
	Schema  string `json:"schema"`
	Format  string `json:"format,omitempty"`
	Data    string `json:"data"`
	Workers int    `json:"workers,omitempty"`
}

// BatchVerifyResult is one certificate's outcome in a batch reply.
type BatchVerifyResult struct {
	ID string `json:"id"`
	// Match/Detected/Verdict mirror VerifyResponse (primary channel only;
	// the one-pass scan does not attempt remap recovery or the frequency
	// channel).
	Match    float64 `json:"match"`
	Detected string  `json:"detected,omitempty"`
	Verdict  string  `json:"verdict,omitempty"`
	// Error reports a per-certificate failure; the batch still completes.
	Error string `json:"error,omitempty"`
}

// BatchVerifyResponse is the batch-verify reply; results follow the
// requested certificate order (or sorted ID order when verifying the
// whole catalog).
type BatchVerifyResponse struct {
	Results []BatchVerifyResult `json:"results"`
	// Tuples is the number of suspect rows scanned — once, no matter how
	// many certificates were checked.
	Tuples int `json:"tuples"`
}

// RecordInfo is the GET records/{id} reply: the certificate's public
// shape with the secret redacted — holders of the store's directory can
// read the raw files, but the API never echoes secrets.
type RecordInfo struct {
	ID                  string `json:"id"`
	Attribute           string `json:"attribute"`
	KeyAttr             string `json:"key_attr,omitempty"`
	WMBits              int    `json:"wm_bits"`
	E                   uint64 `json:"e"`
	Bandwidth           int    `json:"bandwidth"`
	DomainSize          int    `json:"domain_size"`
	HasFrequencyChannel bool   `json:"has_frequency_channel"`
}

// RecordList is the GET /v2/records reply. /v1/records serializes only
// the records array (its original shape) and moves Next into the
// X-Next-After response header.
type RecordList struct {
	// Records is one sorted page of certificate IDs.
	Records []string `json:"records"`
	// Next is the cursor for the following page: pass it back as
	// ?after=<Next>. Empty when this page ends the listing.
	Next string `json:"next,omitempty"`
}

// NextAfterHeader is the /v1 pagination cursor's response header.
const NextAfterHeader = "X-Next-After"

// DeleteResponse acknowledges a record deletion.
type DeleteResponse struct {
	Deleted string `json:"deleted"`
}
