package router

import (
	"context"
	"errors"
	"net/http"
	"time"

	"repro/internal/client"
	"repro/internal/multi"
	"repro/internal/protocol"
	"repro/internal/service"
)

// The fleet audit path. The router holds no corpus, but every shard
// holds the full one — only artifacts are sharded — so an audit splits
// cleanly in two: the matching phase scatter-gathers across the fleet
// exactly like /v1/matchall (each pair on its owning shard's warm
// cache), and the merged clusters are then forwarded to one healthy
// shard, which runs the value comparison over its corpus copy. The
// forwarded request is an ordinary AuditRequest with Clusters set, so
// the shard side needs no fleet-specific code, and the assembled
// response is byte-identical to a single binary's modulo timings and
// cache provenance.

func (rt *Router) handleAudit(w http.ResponseWriter, req *http.Request) {
	var areq protocol.AuditRequest
	if e := service.DecodeBody(req, &areq); e != nil {
		service.WriteEnvelope(w, e)
		return
	}
	r, err := areq.Validate()
	if err != nil {
		service.WriteEnvelope(w, protocol.FromErr(err))
		return
	}
	start := time.Now()
	var pairs []protocol.MatchAllPair
	var cacheFn func() protocol.CacheStats
	if areq.Clusters == nil {
		final, fm, e := rt.scatterGather(req.Context(), protocol.MatchRequest{All: true},
			protocol.Resolved{All: true, Multi: r.Multi})
		if e != nil {
			service.WriteEnvelope(w, e)
			return
		}
		if final == nil {
			service.WriteEnvelope(w, protocol.Errorf(protocol.CodeUnavailable, "audit matching phase produced no result"))
			return
		}
		areq.Clusters = final.Clusters
		if areq.Clusters == nil {
			areq.Clusters = []multi.Cluster{}
		}
		for i := range final.Outcomes {
			pairs = append(pairs, service.PairOutcomeDTO(&final.Outcomes[i]))
		}
		cacheFn = fm.cacheTotals
	}
	resp, e := rt.forwardAudit(req.Context(), areq)
	if e != nil {
		service.WriteEnvelope(w, e)
		return
	}
	if cacheFn != nil {
		resp.Pairs = pairs
		resp.Cache = cacheFn()
	}
	resp.ElapsedMS = msSince(start)
	service.WriteJSON(w, http.StatusOK, resp)
}

func (rt *Router) handleAuditStream(w http.ResponseWriter, req *http.Request) {
	var areq protocol.AuditRequest
	if e := service.DecodeBody(req, &areq); e != nil {
		service.WriteEnvelope(w, e)
		return
	}
	r, err := areq.Validate()
	if err != nil {
		service.WriteEnvelope(w, protocol.FromErr(err))
		return
	}
	ctx, cancel := context.WithCancel(req.Context())
	defer cancel()
	start := time.Now()
	lines := make(chan protocol.StreamLine, 16)
	go func() {
		defer close(lines)
		emit := func(line protocol.StreamLine) bool {
			select {
			case lines <- line:
				return true
			case <-ctx.Done():
				return false
			}
		}
		var pairs []protocol.MatchAllPair
		var cacheFn func() protocol.CacheStats
		if areq.Clusters == nil {
			langs, e := rt.fleetLanguages(ctx)
			if e != nil {
				emit(protocol.StreamLine{Error: e})
				return
			}
			plan, err := multi.NewPlan(langs, r.Multi.Mode, r.Multi.Hub)
			if err != nil {
				emit(protocol.StreamLine{Error: protocol.FromErr(err)})
				return
			}
			fm := rt.fleetMatcher(protocol.MatchRequest{})
			updates := multi.StreamPlan(ctx, fm, plan, rt.batchWorkers(protocol.Resolved{Multi: r.Multi}, plan))
			var final *multi.BatchResult
			for u := range updates {
				if u.Outcome != nil {
					p := service.PairOutcomeDTO(u.Outcome)
					if !emit(protocol.StreamLine{Done: u.Done, Total: u.Total, Pair: &p}) {
						for range updates {
						}
						return
					}
				}
				if u.Final != nil {
					final = u.Final
				}
			}
			if final == nil {
				return
			}
			areq.Clusters = final.Clusters
			if areq.Clusters == nil {
				areq.Clusters = []multi.Cluster{}
			}
			for i := range final.Outcomes {
				pairs = append(pairs, service.PairOutcomeDTO(&final.Outcomes[i]))
			}
			cacheFn = fm.cacheTotals
		}
		st, e := rt.forwardAuditStream(ctx, areq)
		if e != nil {
			emit(protocol.StreamLine{Error: e})
			return
		}
		defer st.Close()
		for st.Next() {
			line := st.Line()
			if line.FinalAudit != nil && cacheFn != nil {
				line.FinalAudit.Pairs = pairs
				line.FinalAudit.Cache = cacheFn()
				line.FinalAudit.ElapsedMS = msSince(start)
			}
			if !emit(line) {
				return
			}
		}
		if err := st.Err(); err != nil {
			emit(protocol.StreamLine{Error: protocol.FromErr(err)})
		}
	}()
	service.WriteNDJSONStream(w, rt.streamTimeout, cancel, lines)
}

// forwardAudit hands a clusters-bearing audit request to the first
// healthy shard. Structured non-retryable errors (validation) pass
// through immediately; transport-class failures try the next shard —
// any shard can serve the comparison, since all hold the full corpus.
func (rt *Router) forwardAudit(ctx context.Context, areq protocol.AuditRequest) (*protocol.AuditResponse, *protocol.Error) {
	var lastErr *protocol.Error
	for i := range rt.shards {
		sh := &rt.shards[i]
		resp, err := sh.c.Audit(ctx, areq)
		if err != nil {
			var pe *protocol.Error
			if errors.As(err, &pe) && !pe.Retryable {
				return nil, pe
			}
			lastErr = rt.shardErr(sh, err)
			continue
		}
		return resp, nil
	}
	if lastErr == nil {
		lastErr = protocol.Errorf(protocol.CodeUnavailable, "no shard answered the audit")
	}
	return nil, lastErr
}

// forwardAuditStream is forwardAudit for the streaming endpoint.
func (rt *Router) forwardAuditStream(ctx context.Context, areq protocol.AuditRequest) (*client.Stream, *protocol.Error) {
	var lastErr *protocol.Error
	for i := range rt.shards {
		sh := &rt.shards[i]
		st, err := sh.c.AuditStream(ctx, areq)
		if err != nil {
			var pe *protocol.Error
			if errors.As(err, &pe) && !pe.Retryable {
				return nil, pe
			}
			lastErr = rt.shardErr(sh, err)
			continue
		}
		return st, nil
	}
	if lastErr == nil {
		lastErr = protocol.Errorf(protocol.CodeUnavailable, "no shard answered the audit stream")
	}
	return nil, lastErr
}
