// Package cluster scales natix-serve past one process: a topology of
// shard instances, each serving a disjoint slice of the document catalog
// with the full single-node engine (admission queue, plan cache,
// quarantine and per-shard indexes unchanged), and a coordinator that routes
// single-document queries to the owning shard and scatter-gathers
// multi-document or wildcard-corpus queries across all healthy shards,
// merging per-shard document-ordered results into one globally ordered
// answer.
//
// Placement is consistent hashing on the document name over a ring of
// virtual nodes, so adding or removing a shard moves only the documents it
// owns. The observed placement wins over the hash, though: the health
// prober polls every shard's /documents, and a document a shard actually
// reports is routed there even if the hash says otherwise — operators can
// place documents by hand and the coordinator follows the catalog, not the
// formula.
//
// The topology is a JSON file. Reloading it (POST /topology) reuses the
// catalog's atomic-rename contract (catalog.ReplaceFile): the new file is
// written aside, fsynced, renamed over the old one — a crash leaves either
// the complete old topology or the complete new one. Health and
// document-placement state carries over for shards whose identity is
// unchanged, so a topology edit never resets the prober's hysteresis.
package cluster

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"net/url"
	"os"
	"sort"

	"natix/internal/catalog"
)

// defaultVNodes is the virtual-node count per shard on the hash ring:
// enough points that document load spreads within a few percent of even,
// few enough that ring construction and lookup stay trivially cheap.
const defaultVNodes = 64

// ShardSpec is one shard entry of the topology file.
type ShardSpec struct {
	// ID names the shard; placement hashes ride on it, so renaming a shard
	// moves its documents.
	ID string `json:"id"`
	// Endpoints are the shard's base URLs in preference order (the first
	// healthy one serves).
	Endpoints []string `json:"endpoints"`
}

// TopologySpec is the JSON shape of the topology file.
type TopologySpec struct {
	// Generation is the operator-managed version of the file, echoed in
	// /topology answers so a fleet of coordinators can be checked for
	// agreement.
	Generation uint64 `json:"generation"`
	// VNodes is the virtual-node count per shard (default 64). Every
	// coordinator must use the same value or placements disagree.
	VNodes int `json:"vnodes,omitempty"`
	// Shards is the shard list.
	Shards []ShardSpec `json:"shards"`
}

// ringPoint is one virtual node on the hash ring.
type ringPoint struct {
	hash  uint64
	shard string
}

// Topology is a validated, immutable shard map with its consistent-hash
// ring. Build one with ParseTopology or LoadTopologyFile.
type Topology struct {
	spec  TopologySpec
	ring  []ringPoint
	byID  map[string]ShardSpec
	order []string // shard IDs, sorted
}

// hash64 is the placement hash: FNV-1a (stable across processes and Go
// versions, which maphash is not) finished with a 64-bit bit mixer. The
// mixer matters: raw FNV-1a leaves near-identical keys — "doc-001",
// "doc-002", a whole corpus named by one convention — clustered in a narrow
// hash interval, which collapses the ring onto one or two virtual nodes.
func hash64(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	x := h.Sum64()
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// ParseTopology validates and indexes a topology document.
func ParseTopology(data []byte) (*Topology, error) {
	var spec TopologySpec
	if err := json.Unmarshal(data, &spec); err != nil {
		return nil, fmt.Errorf("cluster: bad topology: %w", err)
	}
	return NewTopology(spec)
}

// NewTopology validates spec and builds its hash ring.
func NewTopology(spec TopologySpec) (*Topology, error) {
	if len(spec.Shards) == 0 {
		return nil, fmt.Errorf("cluster: topology has no shards")
	}
	if spec.VNodes == 0 {
		spec.VNodes = defaultVNodes
	}
	if spec.VNodes < 1 {
		return nil, fmt.Errorf("cluster: vnodes %d: want >= 1", spec.VNodes)
	}
	t := &Topology{spec: spec, byID: map[string]ShardSpec{}}
	for _, sh := range spec.Shards {
		if sh.ID == "" {
			return nil, fmt.Errorf("cluster: shard with empty id")
		}
		if _, dup := t.byID[sh.ID]; dup {
			return nil, fmt.Errorf("cluster: duplicate shard id %q", sh.ID)
		}
		if len(sh.Endpoints) == 0 {
			return nil, fmt.Errorf("cluster: shard %q has no endpoints", sh.ID)
		}
		for _, ep := range sh.Endpoints {
			u, err := url.Parse(ep)
			if err != nil || (u.Scheme != "http" && u.Scheme != "https") || u.Host == "" {
				return nil, fmt.Errorf("cluster: shard %q endpoint %q: want http(s)://host[:port]", sh.ID, ep)
			}
		}
		t.byID[sh.ID] = sh
		t.order = append(t.order, sh.ID)
		for v := 0; v < spec.VNodes; v++ {
			t.ring = append(t.ring, ringPoint{hash: hash64(fmt.Sprintf("%s#%d", sh.ID, v)), shard: sh.ID})
		}
	}
	sort.Strings(t.order)
	sort.Slice(t.ring, func(i, j int) bool {
		if t.ring[i].hash != t.ring[j].hash {
			return t.ring[i].hash < t.ring[j].hash
		}
		// Hash ties (vanishingly rare) break by shard ID so every
		// coordinator builds the identical ring.
		return t.ring[i].shard < t.ring[j].shard
	})
	return t, nil
}

// LoadTopologyFile reads and validates the topology file at path.
func LoadTopologyFile(path string) (*Topology, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("cluster: %w", err)
	}
	t, err := ParseTopology(data)
	if err != nil {
		return nil, fmt.Errorf("cluster: topology %s: %w", path, err)
	}
	return t, nil
}

// Save writes the topology to path under the catalog's atomic-rename
// contract: readers of the old file keep a complete old topology, a crash
// at any point leaves a complete file, never a torn mix.
func (t *Topology) Save(path string) error {
	data, err := json.MarshalIndent(t.spec, "", "  ")
	if err != nil {
		return err
	}
	return catalog.ReplaceFile(path, append(data, '\n'), nil)
}

// Generation returns the operator-managed topology version.
func (t *Topology) Generation() uint64 { return t.spec.Generation }

// VNodes returns the ring's virtual-node count per shard.
func (t *Topology) VNodes() int { return t.spec.VNodes }

// ShardIDs returns the shard IDs in sorted order.
func (t *Topology) ShardIDs() []string { return append([]string(nil), t.order...) }

// Shard returns the spec of the named shard.
func (t *Topology) Shard(id string) (ShardSpec, bool) {
	sh, ok := t.byID[id]
	return sh, ok
}

// Owner returns the shard the hash ring places doc on: the first virtual
// node at or clockwise of the document's hash.
func (t *Topology) Owner(doc string) string {
	h := hash64(doc)
	i := sort.Search(len(t.ring), func(i int) bool { return t.ring[i].hash >= h })
	if i == len(t.ring) {
		i = 0 // wrap: the ring is a circle
	}
	return t.ring[i].shard
}

// Place partitions docs by owning shard — the helper load tests and
// provisioning scripts use to lay a corpus out the way the coordinator
// will route it.
func (t *Topology) Place(docs []string) map[string][]string {
	out := map[string][]string{}
	for _, d := range docs {
		o := t.Owner(d)
		out[o] = append(out[o], d)
	}
	for _, list := range out {
		sort.Strings(list)
	}
	return out
}
