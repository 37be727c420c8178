package tivclient

import (
	"context"
	"errors"
	"fmt"

	"tivaware/internal/tivaware"
	"tivaware/internal/tivframe"
	"tivaware/internal/tivwire"
)

// The framed call path. When Options.FrameAddr is set, every query,
// update, and health ping travels over a pool of persistent raw
// connections (tivd -frame-listen) carrying the same binary frames the
// HTTP binary codec uses — multiplexed by request id, with no
// per-request HTTP overhead. Single-shot queries become framed batches
// of one, which is exactly how the daemon answers a single-shot GET
// internally, so both transports hit the same cache entries and
// produce the same answers. Every failure is classified into the same
// typed *Error taxonomy the HTTP path produces, so the retry layers
// above (tivshard) dispatch identically no matter the transport.

// frameCall performs one request/response exchange on the framed pool
// and decodes the response into resp.
func (c *Client) frameCall(ctx context.Context, op string, req, resp any) error {
	ctx, cancel := c.callCtx(ctx)
	defer cancel()
	err := c.frames.Do(ctx, req, resp)
	if err == nil {
		return nil
	}
	var se *tivframe.ServerError
	switch {
	case errors.As(err, &se):
		// The framed analogue of a non-200 envelope response.
		return &Error{Op: op, Code: se.Env.Code, Message: se.Env.Error,
			RetryAfter: retryAfter(se.Env.RetryAfter), cause: err}
	case errors.Is(err, tivframe.ErrDecode):
		return &Error{Op: op, Code: CodeBadPayload, Message: err.Error(), cause: err}
	default:
		// Dial, write, torn-read, and context failures: the request
		// may never have completed. Context errors stay reachable via
		// the cause chain, so IsRetryable still rules cancellation
		// terminal.
		return &Error{Op: op, Code: CodeTransport, Message: err.Error(), cause: err}
	}
}

// frameQuery answers one single-shot query as a framed batch of one
// and returns the aligned result.
func (c *Client) frameQuery(ctx context.Context, op string, q tivaware.Query) (tivwire.Result, error) {
	var resp tivwire.BatchResponse
	req := tivwire.BatchRequest{Queries: tivwire.FromQueries([]tivaware.Query{q})}
	if err := c.frameCall(ctx, op, &req, &resp); err != nil {
		return tivwire.Result{}, err
	}
	if len(resp.Results) != 1 {
		return tivwire.Result{}, &Error{Op: op, Code: CodeBadPayload,
			Message: fmt.Sprintf("daemon answered %d results for 1 query", len(resp.Results))}
	}
	return resp.Results[0], nil
}
