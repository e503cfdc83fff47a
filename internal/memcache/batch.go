package memcache

import "time"

// KV is one key/value pair of a bulk write.
type KV struct {
	// Key is the item's unique identifier.
	Key string
	// Value is the opaque payload.
	Value []byte
	// TTL is the item's time to live (0 = Config.DefaultTTL, or no expiry).
	TTL time.Duration
}

// GetBatch retrieves many keys in one server-side operation. It returns the
// found items and the keys that were absent (or expired). A batch costs one
// worker-slot acquisition plus an amortized per-item service time, which is
// what makes bulk transfers (synchronization agent rounds, lazy-propagation
// flushes) far cheaper than issuing the equivalent individual operations.
func (c *Cache) GetBatch(keys []string) (found []Item, missing []string, err error) {
	if err := c.enter(); err != nil {
		return nil, nil, err
	}
	defer c.leaveBatch(len(keys))

	for _, key := range keys {
		c.countGet()
		rec, ok := c.lookup(key)
		if !ok {
			c.countMiss()
			missing = append(missing, key)
			continue
		}
		c.countHit()
		found = append(found, rec.item(key))
	}
	return found, missing, nil
}

// PutBatch stores many key/value pairs in one server-side operation,
// returning the stored items in input order. Like GetBatch it charges one
// slot acquisition plus an amortized per-item service time.
func (c *Cache) PutBatch(kvs []KV) ([]Item, error) {
	if err := c.enter(); err != nil {
		return nil, err
	}
	defer c.leaveBatch(len(kvs))

	out := make([]Item, 0, len(kvs))
	for _, kv := range kvs {
		c.puts.Add(1)
		it, err := c.store(kv.Key, kv.Value, kv.TTL, nil)
		if err != nil {
			return out, err
		}
		out = append(out, it)
	}
	return out, nil
}

// DeleteBatch removes many keys in one server-side operation, returning how
// many of them were present. Absent keys (and expired ones, which it evicts)
// are skipped rather than reported as errors: a bulk delete is the
// propagation of deletions that already succeeded somewhere else, so "already
// gone" is success.
func (c *Cache) DeleteBatch(keys []string) (int, error) {
	if err := c.enter(); err != nil {
		return 0, err
	}
	defer c.leaveBatch(len(keys))

	deleted := 0
	for _, key := range keys {
		c.deletes.Add(1)
		if c.take(key) {
			deleted++
		}
	}
	return deleted, nil
}

// leaveBatch releases the worker slot after charging the amortized service
// time of an n-item batch.
func (c *Cache) leaveBatch(n int) {
	if c.cfg.ServiceTime > 0 {
		d := c.cfg.ServiceTime + c.cfg.ServiceTime*time.Duration(n)/time.Duration(c.cfg.BatchFactor)
		c.cfg.Sleep(d)
	}
	if c.slots != nil {
		<-c.slots
	}
}
