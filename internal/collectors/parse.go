package collectors

import (
	"fmt"
	"strconv"
	"strings"

	"beltway/internal/core"
)

// Parse builds a configuration from its command-line spelling, the
// interface the paper describes ("Beltway configurations, selected by
// command line options"):
//
//	ss               Beltway Semi-Space (BSS)
//	appel            Appel-style generational (boundary barrier, the baseline)
//	appel3           three-generation Appel-style baseline
//	fixed:N          fixed-size nursery generational, nursery N% of usable
//	bofm:N           Beltway Older-First Mix, increments N%
//	bof:N            Beltway Older-First, window N%
//	X.X              e.g. "25.25": two-belt Beltway, increments X%
//	X.X.100          e.g. "25.25.100": complete three-belt Beltway
//	X.Y              e.g. "25.50": two-belt Beltway with distinct sizes
//	X.Y.100          three-belt with distinct lower sizes
//	X.X.mos          Mature Object Space top belt (the §5 extension)
//	immix            single mark-region belt (mark-sweep over lines + defrag)
//	cards:<spec>     any of the above with card marking instead of remsets
//	<spec>-mr        any of the above with a mark-region mature belt
//
// Numeric forms use percentages of usable memory, as in the paper.
func Parse(spec string, o Options) (core.Config, error) {
	s := strings.ToLower(strings.TrimSpace(spec))
	if rest, ok := strings.CutPrefix(s, "cards:"); ok {
		cfg, err := Parse(rest, o)
		if err != nil {
			return core.Config{}, err
		}
		return WithCardBarrier(cfg), nil
	}
	if rest, ok := strings.CutSuffix(s, "-mr"); ok {
		cfg, err := Parse(rest, o)
		if err != nil {
			return core.Config{}, err
		}
		cfg = WithMarkRegion(cfg)
		// Reject combinations the engine forbids (older-first, cards)
		// here, so callers see a parse error, not a later Validate one.
		if err := cfg.Validate(); err != nil && cfg.HeapBytes > 0 {
			return core.Config{}, fmt.Errorf("collectors: %q: %w", spec, err)
		}
		return cfg, nil
	}
	switch {
	case s == "immix":
		return Immix(o), nil
	case s == "ss" || s == "bss" || s == "semispace":
		return BSS(o), nil
	case s == "appel":
		return Appel(o), nil
	case s == "appel3":
		return Appel3(o), nil
	case s == "ba2":
		return BA2(o), nil
	case strings.HasPrefix(s, "fixed:"):
		n, err := pct(s[len("fixed:"):])
		if err != nil {
			return core.Config{}, fmt.Errorf("collectors: %q: %w", spec, err)
		}
		// The fixed nursery keeps a copy reserve of its own size, so a
		// 100% nursery would reserve the whole heap; found by
		// FuzzConfigParse ("fixed:100" parsed to a config with
		// ReserveFrac 1.0 that Validate then rejected).
		if n >= 100 {
			return core.Config{}, fmt.Errorf("collectors: %q: fixed nursery must be below 100%%", spec)
		}
		return Fixed(n, o), nil
	case strings.HasPrefix(s, "bofm:"):
		n, err := pct(s[len("bofm:"):])
		if err != nil {
			return core.Config{}, fmt.Errorf("collectors: %q: %w", spec, err)
		}
		return BOFM(n, o), nil
	case strings.HasPrefix(s, "bof:"):
		n, err := pct(s[len("bof:"):])
		if err != nil {
			return core.Config{}, fmt.Errorf("collectors: %q: %w", spec, err)
		}
		return BOF(n, o), nil
	}

	if rest, ok := strings.CutSuffix(s, ".mos"); ok {
		n, err := pct(strings.Split(rest, ".")[0])
		if err == nil && rest == fmt.Sprintf("%d.%d", n, n) {
			return XXMOS(n, o), nil
		}
		return core.Config{}, fmt.Errorf("collectors: %q: MOS form is X.X.mos", spec)
	}

	var buf [3]int
	nums := buf[:0]
	for rest, more := s, true; more; {
		var part string
		part, rest, more = strings.Cut(rest, ".")
		n, err := pct(part)
		if err != nil || len(nums) == len(buf) {
			return core.Config{}, fmt.Errorf("collectors: unrecognized configuration %q", spec)
		}
		nums = append(nums, n)
	}
	switch len(nums) {
	case 2:
		if nums[0] == nums[1] {
			return XX(nums[0], o), nil
		}
		return XY(nums[0], nums[1], o), nil
	case 3:
		if nums[2] != 100 {
			return core.Config{}, fmt.Errorf("collectors: %q: third belt must be 100", spec)
		}
		if nums[0] == nums[1] {
			return XX100(nums[0], o), nil
		}
		c := XX100(nums[0], o)
		c.Name = name("Beltway ", ".100", nums[0], nums[1])
		c.Belts[1].IncrementFrac = frac(nums[1])
		return c, nil
	}
	return core.Config{}, fmt.Errorf("collectors: unrecognized configuration %q", spec)
}

func pct(s string) (int, error) {
	n, err := strconv.Atoi(strings.TrimSpace(s))
	if err != nil {
		return 0, err
	}
	if n <= 0 || n > 100 {
		return 0, fmt.Errorf("percentage %d out of range (1-100]", n)
	}
	return n, nil
}
