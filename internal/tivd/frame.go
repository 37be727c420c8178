package tivd

import (
	"context"
	"fmt"

	"tivaware/internal/tivframe"
	"tivaware/internal/tivwire"
)

// The framed transport's request surface. A framed daemon answers the
// same three request-response message families the HTTP endpoints do
// — batched queries, update batches, and health pings — through the
// exact same cores (resolveBatch, applyWire, healthWire), so the
// epoch-keyed cache and the failure taxonomy cannot drift between
// transports. SSE subscriptions stay on HTTP: a
// one-response-per-request envelope is the wrong shape for an
// unbounded server-push stream.

// FrameHandler adapts the daemon to tivframe: callers run it with
// tivframe.NewServer(srv.FrameHandler(), opts) over any raw TCP or
// unix listener.
func (s *Server) FrameHandler() tivframe.Handler { return frameHandler{s} }

type frameHandler struct{ s *Server }

// ServeFrame answers one framed request: *tivwire.BatchRequest (the
// query path), *tivwire.UpdateRequest (the write path), or
// *tivwire.Hello (the health ping). Anything else — including decoded
// messages that are responses, not requests — is a bad request.
func (h frameHandler) ServeFrame(ctx context.Context, msg any) any {
	switch m := msg.(type) {
	case *tivwire.BatchRequest:
		resp, err := h.s.resolveBatch(ctx, tivwire.ToQueries(m.Queries))
		if err != nil {
			return frameError(err)
		}
		return resp
	case *tivwire.UpdateRequest:
		cs, err := h.s.applyWire(ctx, m)
		if err != nil {
			return frameError(err)
		}
		return &cs
	case *tivwire.Hello:
		hh, err := h.s.healthWire(ctx)
		if err != nil {
			return frameError(err)
		}
		return &hh
	default:
		e := envelope(tivwire.CodeBadRequest, fmt.Errorf("unsupported frame request %T", msg))
		return &e
	}
}

// frameError renders a core error as the wire envelope the HTTP path
// would have written (status travels as the taxonomy code; frames
// have no status line).
func frameError(err error) *tivwire.Error {
	_, e := errorEnvelope(err)
	return &e
}
