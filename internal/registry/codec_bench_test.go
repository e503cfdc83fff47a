package registry

import (
	"context"
	"testing"

	"geomds/internal/memcache"
)

// The registry's rungs of the per-layer ladder, over geobench's entry shape:
// go test -run '^$' -bench 'Entry|Instance' -benchmem ./internal/registry

func BenchmarkEntryEncode(b *testing.B) {
	e := geobenchEntry(1)
	b.ReportAllocs()
	b.SetBytes(int64(EncodedSize(e)))
	for b.Loop() {
		encodeEntry(e)
	}
}

func BenchmarkEntryDecode(b *testing.B) {
	data := AppendEntry(nil, geobenchEntry(1))
	b.ReportAllocs()
	b.SetBytes(int64(len(data)))
	for b.Loop() {
		if _, err := DecodeEntry(data); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEntryDecodeGobCompat is what reading a value stored before the
// entry format costs, until the name is next written.
func BenchmarkEntryDecodeGobCompat(b *testing.B) {
	data := gobEncode(b, geobenchEntry(1))
	b.ReportAllocs()
	b.SetBytes(int64(len(data)))
	for b.Loop() {
		if _, err := DecodeEntry(data); err != nil {
			b.Fatal(err)
		}
	}
}

// benchInstance returns an instance over a zero-service-time cache holding
// 4096 entries of geobench's shape, and their names.
func benchInstance(b *testing.B) (*Instance, []string) {
	ctx := context.Background()
	inst := NewInstance(0, memcache.New(memcache.Config{}))
	names := make([]string, 4096)
	for i := range names {
		e := geobenchEntry(i)
		names[i] = e.Name
		if _, err := inst.Put(ctx, e); err != nil {
			b.Fatal(err)
		}
	}
	return inst, names
}

func BenchmarkInstanceGet(b *testing.B) {
	ctx := context.Background()
	inst, names := benchInstance(b)
	b.ReportAllocs()
	i := 0
	for b.Loop() {
		if _, err := inst.Get(ctx, names[i%len(names)]); err != nil {
			b.Fatal(err)
		}
		i++
	}
}

func BenchmarkInstancePut(b *testing.B) {
	ctx := context.Background()
	inst, names := benchInstance(b)
	e := geobenchEntry(0)
	b.ReportAllocs()
	i := 0
	for b.Loop() {
		e.Name = names[i%len(names)]
		if _, err := inst.Put(ctx, e); err != nil {
			b.Fatal(err)
		}
		i++
	}
}
