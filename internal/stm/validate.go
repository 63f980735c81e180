package stm

import (
	"errors"
	"fmt"
)

// ErrInvalidConfig is the sentinel every *ConfigError matches via errors.Is,
// so callers can test for "some config problem" without enumerating fields.
var ErrInvalidConfig = errors.New("stm: invalid config")

// ConfigError reports one invalid Config field (or field combination). It is
// the typed replacement for the silent clamping withDefaults historically did:
// construction still tolerates zero values, but front ends that accept user
// input (flag parsing, network control planes) call Config.Validate first and
// surface the reason.
type ConfigError struct {
	Field  string // the offending Config field ("Algorithm", "CM", ...)
	Reason string
}

func (e *ConfigError) Error() string {
	return fmt.Sprintf("stm: invalid config: %s: %s", e.Field, e.Reason)
}

// Is makes errors.Is(err, ErrInvalidConfig) true for every ConfigError.
func (e *ConfigError) Is(target error) bool { return target == ErrInvalidConfig }

// Validate checks the configuration for out-of-range values and meaningless
// combinations. Zero values are legal (New applies defaults); Validate only
// rejects settings that cannot mean what the user asked for.
func (c Config) Validate() error {
	if c.Algorithm < MLWT || c.Algorithm > SerialAlg {
		return &ConfigError{"Algorithm", fmt.Sprintf("unknown algorithm %d", int(c.Algorithm))}
	}
	if c.CM < CMSerialize || c.CM > CMHourglass {
		return &ConfigError{"CM", fmt.Sprintf("unknown contention manager %d", int(c.CM))}
	}
	if c.SerializeAfter < 0 {
		return &ConfigError{"SerializeAfter", "must be >= 0 (0 = default)"}
	}
	if c.HourglassAfter < 0 {
		return &ConfigError{"HourglassAfter", "must be >= 0 (0 = default)"}
	}
	if c.OrecBits < 0 || c.OrecBits > 30 {
		return &ConfigError{"OrecBits", "must be in [0, 30] (0 = default)"}
	}
	if c.Algorithm == SerialAlg && c.CM == CMHourglass {
		return &ConfigError{"CM", "hourglass gates speculative attempts; serial-only execution never aborts"}
	}
	if c.Algorithm == SerialAlg && c.CM == CMBackoff {
		return &ConfigError{"CM", "backoff spaces speculative retries; serial-only execution never aborts"}
	}
	return nil
}
