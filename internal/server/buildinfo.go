package server

import (
	"net/http"
	"runtime"

	"natix"
	"natix/internal/httpapi"
	"natix/internal/store"
)

// BuildFeatures lists the serving features a process has enabled — the
// part of /buildinfo that must agree across a cluster's shards for
// placement-independent answers (a shard with the path index off is
// correct but slow; a shard on another store format version cannot open
// the same files).
type BuildFeatures struct {
	// Batch reports the batched execution protocol (always on).
	Batch bool `json:"batch"`
	// PathIndex reports cost-based path-index access-path selection.
	PathIndex bool `json:"path_index"`
}

// BuildInfo is the GET /buildinfo payload: enough identity to verify that
// every shard of a cluster runs the same engine the same way.
type BuildInfo struct {
	Version            string        `json:"version"`
	GoVersion          string        `json:"go_version"`
	StoreFormatVersion int           `json:"store_format_version"`
	GOMAXPROCS         int           `json:"gomaxprocs"`
	Role               string        `json:"role"`
	Features           BuildFeatures `json:"features"`
}

// NewBuildInfo assembles the process's build identity for the given role
// ("shard" for a document-serving instance, "coordinator" for a cluster
// front).
func NewBuildInfo(role string, features BuildFeatures) BuildInfo {
	return BuildInfo{
		Version:            natix.Version,
		GoVersion:          runtime.Version(),
		StoreFormatVersion: store.FormatVersion,
		GOMAXPROCS:         runtime.GOMAXPROCS(0),
		Role:               role,
		Features:           features,
	}
}

// handleBuildInfo serves GET /buildinfo.
func (s *Server) handleBuildInfo(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		httpapi.WriteError(w, httpapi.Errf(http.StatusMethodNotAllowed, httpapi.CodeBadRequest, "GET only"))
		return
	}
	httpapi.WriteJSON(w, http.StatusOK, NewBuildInfo("shard", BuildFeatures{
		Batch:     true,
		PathIndex: s.cfg.PathIndex,
	}))
}
