package chaos

import (
	"encoding/csv"
	"errors"
	"fmt"
	"io"
	"math"
	"strconv"
	"time"
)

// ruleHeader is the rule file's column row, one column per parsed Rule
// field.
var ruleHeader = [...]string{"site", "kind", "after", "every", "count", "delay_ms", "frac"}

// errOffsetScript refuses a fault script in the retired time-offset format:
// a wall-clock offset lands on a different write in every real-time run,
// so such a script cannot replay.
var errOffsetScript = errors.New("time-offset fault scripts (at_s,kind,duration_s,extra_latency_ms) are not read; " +
	"write one hit-counted rule per row: site,kind,after,every,count,delay_ms,frac")

// maxDelay bounds a parsed delay: generous for sessions of minutes, and it
// keeps the float to Duration conversion from wrapping negative.
const maxDelay = 24 * time.Hour

// ReadRules parses a fault rule file (EXPERIMENTS.md, "Fault rule
// format"): one Rule per row, with an optional header,
//
//	site,kind,after,every,count,delay_ms,frac
//	netem.link.write,error,120,0,1,0,0
//
// kind is a Kind's catalog name; after, every and count are the Rule's
// hit counts; delay_ms and frac are its Delay and Frac, zero meaning the
// default. Site names are Arm's to check. A time-offset script is refused
// with errOffsetScript.
func ReadRules(r io.Reader) ([]Rule, error) {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = -1 // checked below, so an old script gets its own error
	var rules []Rule
	for line := 1; ; line++ {
		rec, err := cr.Read()
		if err == io.EOF {
			return rules, nil
		}
		if err != nil {
			return nil, fmt.Errorf("chaos: rules: %w", err)
		}
		if len(rec) == 4 {
			return nil, fmt.Errorf("chaos: rules line %d: %w", line, errOffsetScript)
		}
		if len(rec) != len(ruleHeader) {
			return nil, fmt.Errorf("chaos: rules line %d: %d fields, want %d", line, len(rec), len(ruleHeader))
		}
		if line == 1 && rec[0] == ruleHeader[0] {
			continue
		}
		rule, err := parseRule(rec)
		if err != nil {
			return nil, fmt.Errorf("chaos: rules line %d: %w", line, err)
		}
		rules = append(rules, rule)
	}
}

// parseRule parses one record of len(ruleHeader) fields.
func parseRule(rec []string) (Rule, error) {
	r := Rule{Site: rec[0]}
	for k := FaultError; k <= FaultCorrupt; k++ {
		if rec[1] == k.String() {
			r.Kind = k
		}
	}
	if r.Kind == faultNone {
		return Rule{}, fmt.Errorf("unknown fault kind %q", rec[1])
	}
	for i, n := range []*int{&r.After, &r.Every, &r.Count} {
		v, err := strconv.Atoi(rec[2+i])
		if err != nil || v < 0 {
			return Rule{}, fmt.Errorf("bad %s %q", ruleHeader[2+i], rec[2+i])
		}
		*n = v
	}
	// Both float checks are negated forms, so they refuse NaN too.
	ms, err := strconv.ParseFloat(rec[5], 64)
	if err != nil || !(ms >= 0 && ms*float64(time.Millisecond) <= float64(maxDelay)) {
		return Rule{}, fmt.Errorf("bad delay_ms %q", rec[5])
	}
	r.Delay = time.Duration(math.Round(ms * float64(time.Millisecond)))
	if r.Frac, err = strconv.ParseFloat(rec[6], 64); err != nil || !(r.Frac >= 0 && r.Frac < 1) {
		return Rule{}, fmt.Errorf("bad frac %q", rec[6])
	}
	return r, nil
}
