package engine

// RecycleInTx seeds the mutant of TestTortureRecycleMutant on every shard of
// c: an allocation nested in an open transaction then takes a recycled chunk
// like any other and fills it directly, under readers that may still hold it
// and with no undo if the transaction aborts.
func RecycleInTx(c *Cache) {
	for _, s := range c.shards {
		s.allocInTx = s.slabs.Alloc
	}
}
