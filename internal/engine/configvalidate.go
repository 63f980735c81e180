package engine

import (
	"errors"
	"fmt"
	"math/bits"
)

// ErrInvalidConfig is the sentinel every engine *ConfigError matches via
// errors.Is, mirroring stm.ErrInvalidConfig one layer up.
var ErrInvalidConfig = errors.New("engine: invalid config")

// ConfigError reports one invalid engine.Config field. New still applies
// defaults silently for zero values; front ends that accept user input (flag
// parsing) call Config.Validate first so a nonsense request is refused with
// the field and reason instead of being clamped or panicking deep inside New.
type ConfigError struct {
	Field  string
	Reason string
	// Err is the underlying cause when the problem lives in an embedded
	// configuration (the STM override); nil otherwise.
	Err error
}

func (e *ConfigError) Error() string {
	if e.Err != nil {
		return fmt.Sprintf("engine: invalid config: %s: %s: %v", e.Field, e.Reason, e.Err)
	}
	return fmt.Sprintf("engine: invalid config: %s: %s", e.Field, e.Reason)
}

// Is makes errors.Is(err, ErrInvalidConfig) true for every ConfigError.
func (e *ConfigError) Is(target error) bool { return target == ErrInvalidConfig }

// Unwrap exposes the embedded cause, so errors.Is(err, stm.ErrInvalidConfig)
// also holds when the STM override is the culprit.
func (e *ConfigError) Unwrap() error { return e.Err }

// Validate checks the configuration for values New would either clamp
// silently or trip over. Zero values are legal (New applies defaults);
// Validate only rejects settings that cannot mean what the user asked for.
func (c Config) Validate() error {
	if _, ok := branchNames[c.Branch]; !ok {
		return &ConfigError{Field: "Branch", Reason: fmt.Sprintf("unknown branch %d", int(c.Branch))}
	}
	if c.STM != nil {
		if !configFor(c.Branch).tm {
			return &ConfigError{Field: "STM", Reason: fmt.Sprintf("branch %s is not transactional; an STM override is meaningless", c.Branch)}
		}
		if err := c.STM.Validate(); err != nil {
			return &ConfigError{Field: "STM", Reason: "invalid STM override", Err: err}
		}
		if c.STM.NoQuiesce {
			return &ConfigError{Field: "STM", Reason: "NoQuiesce removes the grace period slab chunk reuse depends on"}
		}
	}
	if c.Shards < 0 || c.Shards > 1024 {
		return &ConfigError{Field: "Shards", Reason: "must be in [0, 1024] (0 = GOMAXPROCS)"}
	}
	if c.HashPower > 30 {
		return &ConfigError{Field: "HashPower", Reason: "must be in [0, 30] (0 = default)"}
	}
	if c.Stripes < 0 || (c.Stripes > 0 && bits.OnesCount(uint(c.Stripes)) != 1) {
		return &ConfigError{Field: "Stripes", Reason: "must be a power of two (0 = default)"}
	}
	if c.GrowthFactor != 0 && c.GrowthFactor <= 1 {
		return &ConfigError{Field: "GrowthFactor", Reason: "must be > 1 (0 = default)"}
	}
	if c.Watchdog < 0 {
		return &ConfigError{Field: "Watchdog", Reason: "must be >= 0 (0 = disabled)"}
	}
	if c.TMCtl != nil {
		if !configFor(c.Branch).tm {
			return &ConfigError{Field: "TMCtl", Reason: fmt.Sprintf("branch %s is not transactional; there is nothing to control", c.Branch)}
		}
		if c.STM != nil && c.STM.NoSerialLock {
			return &ConfigError{Field: "TMCtl", Reason: "NoSerialLock runtimes cannot quiesce, so their configuration is frozen"}
		}
	}
	return nil
}
