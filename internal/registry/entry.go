// Package registry defines the metadata model of the system and the per-site
// Metadata Registry instance built on top of the in-memory cache tier.
//
// A Registry Entry is the fundamental metadata storage unit of the paper
// (§V): any serializable record with a unique identifier. The base case —
// and the one every experiment uses — is a file uniquely identified by its
// name, carrying the set of its locations within the network. Per the design
// principle of §III-B the entry is deliberately small: no POSIX permissions,
// no extended attributes, only what is needed to locate the file.
package registry

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"geomds/internal/cloud"
)

// Location describes one copy of a file: the datacenter holding it and the
// node that produced or stores it.
type Location struct {
	// Site is the datacenter where the copy lives.
	Site cloud.SiteID `json:"site"`
	// Node is the execution node holding the copy (NoNode if only the site
	// is known, e.g. for data in the site's object store).
	Node cloud.NodeID `json:"node"`
	// Path is an optional storage path or object key within the site.
	Path string `json:"path,omitempty"`
}

// NoNode marks a location that is not pinned to a particular node.
const NoNode cloud.NodeID = -1

// Entry is one metadata record: the description of a (usually small) file
// produced or consumed by workflow tasks.
type Entry struct {
	// Name uniquely identifies the file across the whole multi-site
	// deployment; it is the key hashed by the decentralized strategies.
	Name string `json:"name"`
	// Size is the file size in bytes (most workflow files are small, KBs to
	// a few MBs; the strategies work for any size).
	Size int64 `json:"size"`
	// Locations lists every known copy of the file.
	Locations []Location `json:"locations"`
	// Producer identifies the workflow task that created the file, enabling
	// provenance-based provisioning (paper §III-C). Empty for external inputs.
	Producer string `json:"producer,omitempty"`
	// Created is the creation timestamp of the entry.
	Created time.Time `json:"created"`
	// Version is the registry version of the entry; 0 until stored.
	Version uint64 `json:"version"`
}

// Validation and lookup errors.
var (
	// ErrInvalidEntry is returned when an entry misses mandatory fields.
	ErrInvalidEntry = errors.New("registry: invalid entry")
	// ErrNotFound is returned when a requested entry does not exist.
	ErrNotFound = errors.New("registry: entry not found")
	// ErrExists is returned when creating an entry whose name is taken.
	ErrExists = errors.New("registry: entry already exists")
	// ErrConflict is returned when an optimistic update lost the race.
	ErrConflict = errors.New("registry: version conflict")
	// ErrUnavailable is returned when a registry instance cannot be reached
	// at all — the connection failed, the server is gone, or the transport
	// broke mid-call. It distinguishes "the site is unreachable" from
	// per-entry failures like ErrNotFound, so callers can treat partitions
	// and crashes differently from misses (core exposes it as
	// ErrSiteUnreachable).
	ErrUnavailable = errors.New("registry: instance unavailable")
)

// NewEntry returns an entry for a file produced by task producer at the given
// location.
func NewEntry(name string, size int64, producer string, loc Location) Entry {
	return Entry{
		Name:      name,
		Size:      size,
		Producer:  producer,
		Locations: []Location{loc},
		Created:   time.Now().UTC(),
	}
}

// Validate checks that the entry has a name, a non-negative size and no
// duplicated locations.
func (e Entry) Validate() error {
	if e.Name == "" {
		return fmt.Errorf("%w: empty name", ErrInvalidEntry)
	}
	if e.Size < 0 {
		return fmt.Errorf("%w: negative size %d", ErrInvalidEntry, e.Size)
	}
	seen := make(map[Location]bool, len(e.Locations))
	for _, l := range e.Locations {
		if seen[l] {
			return fmt.Errorf("%w: duplicate location %+v", ErrInvalidEntry, l)
		}
		seen[l] = true
	}
	return nil
}

// HasLocation reports whether the entry already lists the given location.
func (e Entry) HasLocation(loc Location) bool {
	for _, l := range e.Locations {
		if l == loc {
			return true
		}
	}
	return false
}

// AddLocation returns a copy of the entry with loc appended if not already
// present. The receiver is not modified.
func (e Entry) AddLocation(loc Location) Entry {
	if e.HasLocation(loc) {
		return e
	}
	out := e
	out.Locations = append(append([]Location(nil), e.Locations...), loc)
	return out
}

// SitesWithCopy returns the distinct sites holding a copy, in ascending order.
func (e Entry) SitesWithCopy() []cloud.SiteID {
	set := make(map[cloud.SiteID]bool, len(e.Locations))
	for _, l := range e.Locations {
		set[l.Site] = true
	}
	out := make([]cloud.SiteID, 0, len(set))
	for s := range set {
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// NearestCopy returns the location of the copy closest to the given site
// according to the topology (local beats same-region beats geo-distant;
// ties broken by link RTT, then by declaration order). ok is false when the
// entry has no locations.
func (e Entry) NearestCopy(topo *cloud.Topology, from cloud.SiteID) (Location, bool) {
	if len(e.Locations) == 0 {
		return Location{}, false
	}
	best := e.Locations[0]
	bestRTT := topo.Link(from, best.Site).RTT
	for _, l := range e.Locations[1:] {
		if rtt := topo.Link(from, l.Site).RTT; rtt < bestRTT {
			best, bestRTT = l, rtt
		}
	}
	return best, true
}

// Equal reports whether two entries carry the same metadata, ignoring the
// registry-assigned Version.
func (e Entry) Equal(other Entry) bool {
	if e.Name != other.Name || e.Size != other.Size || e.Producer != other.Producer {
		return false
	}
	if !e.Created.Equal(other.Created) {
		return false
	}
	if len(e.Locations) != len(other.Locations) {
		return false
	}
	for i := range e.Locations {
		if e.Locations[i] != other.Locations[i] {
			return false
		}
	}
	return true
}
