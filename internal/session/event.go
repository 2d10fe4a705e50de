package session

import "repro/internal/transfer"

// Kind classifies session events.
type Kind string

// The event taxonomy. Every session emits the same sequence shape on
// the simulated and the real-time path: Join, then per decision epoch
// Sample → Decision → Apply, and finally Finish (or Leave for a
// scheduled departure). Error marks a failed sample or apply.
const (
	// Join: the session attached to its environment and scheduled its
	// first decision epoch. Setting carries the initial configuration.
	Join Kind = "join"
	// Leave: the session was removed before its transfer drained (a
	// departing competitor).
	Leave Kind = "leave"
	// Sample: a measurement window closed. Sample carries the observation.
	Sample Kind = "sample"
	// Decision: the controller chose the next setting (Setting). For a
	// fixed/nil controller this echoes the sample's setting.
	Decision Kind = "decision"
	// Apply: the chosen setting was applied to the environment.
	Apply Kind = "apply"
	// Finish: the transfer completed.
	Finish Kind = "finish"
	// Error: a sample or apply failed. Err carries the cause.
	Error Kind = "error"
)

// Event is one typed occurrence in a session's lifetime. Consumers
// include the testbed timeline recorder, the web service's live
// progress tracker, and CLI reporters; the stream is also the hook
// point for future fault injection and metrics.
type Event struct {
	// Kind is the event type.
	Kind Kind
	// Session identifies the emitting session (the task ID).
	Session string
	// Index is the session's Config.Index: a dense position its driver
	// assigned (the testbed scheduler stamps the participant index), so
	// per-session consumers can index a table instead of hashing
	// Session. Zero when the driver set none; never rendered.
	Index int
	// Time is the clock time in seconds (virtual or wall).
	Time float64
	// Sample is the observation for Sample and Decision events.
	Sample transfer.Sample
	// Setting is the configuration for Join (initial), Decision and
	// Apply (chosen next) events.
	Setting transfer.Setting
	// Err is the cause for Error events.
	Err error
}

// Sink consumes session events. Sinks are called synchronously from
// the session's driver; slow consumers should buffer on their own.
type Sink func(Event)

// MultiSink fans one event stream out to several sinks, skipping nil
// entries. It returns nil when every sink is nil, so drivers can test
// for "no consumer" cheaply.
func MultiSink(sinks ...Sink) Sink {
	live := make([]Sink, 0, len(sinks))
	for _, s := range sinks {
		if s != nil {
			live = append(live, s)
		}
	}
	switch len(live) {
	case 0:
		return nil
	case 1:
		return live[0]
	}
	return func(e Event) {
		for _, s := range live {
			s(e)
		}
	}
}
