package api

// ShardInfoResponse is the body of GET /shard/info, the one JSON endpoint
// of the shard-internal sub-query API: the worker's identity within the
// bundle and the serving snapshot's fingerprint. The router polls it for
// health and generation agreement, and an operator can read it with curl.
// The corridor sub-query itself (/shard/corridor) speaks the binary shard
// wire of internal/pathrank (shardwire.go); its errors are this package's
// typed envelope.
type ShardInfoResponse struct {
	// Shard is this worker's shard index; Parts is the bundle's shard count.
	Shard int `json:"shard"`
	Parts int `json:"parts"`
	// Fingerprint is the serving model's hex fingerprint; all shards of
	// one bundle share it, so a mismatch means a mixed-generation fleet.
	Fingerprint string `json:"fingerprint"`
	// Vertices is the global vertex count (shards keep the full vertex
	// table); Edges counts only this shard's induced edges.
	Vertices int `json:"vertices"`
	Edges    int `json:"edges"`
	// BoundaryVertices is the size of this shard's boundary set.
	BoundaryVertices int `json:"boundary_vertices"`
}
