package stm

import (
	"errors"
	"testing"
)

func TestConfigValidate(t *testing.T) {
	ok := []Config{
		{},
		{Algorithm: LazyAlg, CM: CMBackoff},
		{Algorithm: NOrec, NoSerialLock: true},
		{Algorithm: SerialAlg},
		{OrecBits: 30, SerializeAfter: 5},
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
		{Config{Algorithm: Algorithm(99)}, "Algorithm"},
		{Config{CM: ContentionManager(-1)}, "CM"},
		{Config{SerializeAfter: -1}, "SerializeAfter"},
		{Config{HourglassAfter: -2}, "HourglassAfter"},
		{Config{OrecBits: 31}, "OrecBits"},
		{Config{OrecBits: -1}, "OrecBits"},
		{Config{Algorithm: SerialAlg, CM: CMHourglass}, "CM"},
		{Config{Algorithm: SerialAlg, CM: CMBackoff}, "CM"},
	}
	for _, tc := range bad {
		err := tc.c.Validate()
		if err == nil {
			t.Errorf("Validate(%+v) = nil, want %s error", tc.c, tc.field)
			continue
		}
		if !errors.Is(err, ErrInvalidConfig) {
			t.Errorf("Validate(%+v) = %v, not an ErrInvalidConfig", tc.c, err)
		}
		var ce *ConfigError
		if !errors.As(err, &ce) || ce.Field != tc.field {
			t.Errorf("Validate(%+v) field = %v, want %s", tc.c, err, tc.field)
		}
	}
}
