package main

import (
	"flag"
	"log/slog"
	"os"

	"repro/internal/obs"
)

// logFlags is the shared -log/-log-format registration: the commands that
// run analyses (the bare form and fuzz) accept the same pair with the same
// defaults and help text, so the flags cannot drift per command.
type logFlags struct {
	level  *string
	format *string
}

// addLogFlags registers -log and -log-format on fs.
func addLogFlags(fs *flag.FlagSet) logFlags {
	return logFlags{
		level:  fs.String("log", "off", "structured log level: off, debug, info, warn or error"),
		format: fs.String("log-format", "text", "structured log format: text or json"),
	}
}

// logger builds the stderr logger the flags describe (nil when -log off).
func (lf logFlags) logger() (*slog.Logger, error) {
	return obs.NewLogger(os.Stderr, *lf.level, *lf.format)
}
