package engine

import (
	"errors"
	"fmt"
)

// ErrTransient marks job errors the engine may retry: conditions a
// re-execution has a real chance of clearing (a briefly unwritable
// scratch file, a contended resource) as opposed to deterministic
// failures, which retrying only repeats. Jobs opt in per error via
// MarkTransient; the engine never guesses.
var ErrTransient = errors.New("transient failure")

// MarkTransient wraps err so IsTransient reports true for it (and for
// anything that wraps the result). A nil err stays nil.
func MarkTransient(err error) error {
	if err == nil {
		return nil
	}
	return fmt.Errorf("%w: %w", ErrTransient, err)
}

// IsTransient reports whether err is marked transient.
func IsTransient(err error) bool { return errors.Is(err, ErrTransient) }

// executeWithRetry runs the job, re-executing it up to Config.Retries
// times while it fails with a transient error. Panics are never
// retried.
func (e *Engine) executeWithRetry(j Job) Record {
	rec := e.execute(j)
	for attempt := 1; attempt <= e.cfg.Retries; attempt++ {
		if rec.Outcome != Errored || !IsTransient(rec.Err) {
			break
		}
		rec = e.execute(j)
		rec.Attempts = attempt + 1
	}
	return rec
}
