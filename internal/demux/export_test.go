package demux

// Test-only views of the log's internals for the external test package.

// LogCompactFloor is logCompactFloor.
const LogCompactFloor = logCompactFloor

// Retained reports the number of events the log still holds.
func (l *Log) Retained() int { return len(l.events) }
