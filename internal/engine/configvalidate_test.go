package engine

import (
	"errors"
	"testing"

	"repro/internal/stm"
)

func TestEngineConfigValidate(t *testing.T) {
	ok := []Config{
		{},
		{Branch: ITOnCommit, STM: &stm.Config{Algorithm: stm.NOrec}},
		{Branch: Baseline, Stripes: 256, HashPower: 20},
	}
	for _, c := range ok {
		if err := c.Validate(); err != nil {
			t.Errorf("Validate(%+v) = %v, want nil", c, err)
		}
	}

	bad := []struct {
		c     Config
		field string
	}{
		{Config{Branch: Branch(99)}, "Branch"},
		{Config{Branch: Baseline, STM: &stm.Config{}}, "STM"},
		{Config{Branch: ITOnCommit, STM: &stm.Config{OrecBits: 40}}, "STM"},
		{Config{Branch: ITOnCommit, STM: &stm.Config{NoQuiesce: true}}, "STM"},
		{Config{HashPower: 31}, "HashPower"},
		{Config{Stripes: 3}, "Stripes"},
		{Config{Stripes: -8}, "Stripes"},
		{Config{Watchdog: -1}, "Watchdog"},
	}
	for _, tc := range bad {
		err := tc.c.Validate()
		if err == nil {
			t.Errorf("Validate(%+v) = nil, want %s error", tc.c, tc.field)
			continue
		}
		if !errors.Is(err, ErrInvalidConfig) {
			t.Errorf("Validate(%+v) = %v, not ErrInvalidConfig", tc.c, err)
		}
		var ce *ConfigError
		if !errors.As(err, &ce) || ce.Field != tc.field {
			t.Errorf("Validate(%+v) = %v, want field %s", tc.c, err, tc.field)
		}
	}

	// An invalid STM override unwraps to the STM sentinel too.
	err := Config{Branch: ITOnCommit, STM: &stm.Config{OrecBits: 40}}.Validate()
	if !errors.Is(err, stm.ErrInvalidConfig) {
		t.Errorf("embedded STM error does not unwrap: %v", err)
	}
}
