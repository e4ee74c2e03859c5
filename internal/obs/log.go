package obs

import (
	"context"
	"io"
	"log/slog"
	"sync"
	"time"
)

// LogSink renders bus events through a log/slog handler — the sink
// behind the cmds' -log (text) and -log-json flags. Events below the
// handler's level are skipped before a record is built, and a sink
// logging above debug level is poll-blind (see PollBlind), so a sweep
// builds no poll events at all for it.
type LogSink struct {
	mu sync.Mutex // slog handlers are concurrency-safe; the mutex keeps whole records atomic on shared writers
	h  slog.Handler
}

// NewLogSink wraps w in a text or JSON slog handler filtering below
// min.
func NewLogSink(w io.Writer, json bool, min slog.Level) *LogSink {
	opts := &slog.HandlerOptions{Level: min}
	var h slog.Handler
	if json {
		h = slog.NewJSONHandler(w, opts)
	} else {
		h = slog.NewTextHandler(w, opts)
	}
	return &LogSink{h: h}
}

// OnEvent implements Sink.
func (s *LogSink) OnEvent(e Event) {
	lvl := e.Kind.Level()
	ctx := context.Background()
	if !s.h.Enabled(ctx, lvl) {
		return
	}
	r := slog.NewRecord(time.Now(), lvl, e.Kind.String(), 0)
	r.AddAttrs(e.attrs()...)
	s.mu.Lock()
	defer s.mu.Unlock()
	_ = s.h.Handle(ctx, r)
}

// ReadsPolls implements PollBlind: a sink logging above debug level
// never renders a poll event.
func (s *LogSink) ReadsPolls() bool {
	return s.h.Enabled(context.Background(), KindPoll.Level())
}

// OnPolls implements PollBlind; a poll count has nothing to log.
func (s *LogSink) OnPolls(uint64) {}

// ParseLevel maps the -log-level flag values onto slog levels.
func ParseLevel(s string) (slog.Level, bool) {
	switch s {
	case "debug":
		return slog.LevelDebug, true
	case "", "info":
		return slog.LevelInfo, true
	case "warn":
		return slog.LevelWarn, true
	case "error":
		return slog.LevelError, true
	default:
		return 0, false
	}
}
