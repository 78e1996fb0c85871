package slo

import (
	"encoding/json"
	"net/http"
	"slices"
)

// Handler serves GET /debug/slo as JSON: the evaluator's objectives (with
// burn rates, error-budget remaining, and alert state), its transition
// history (newest first), and the evaluation-cost counters. A nil
// evaluator serves an empty payload, so the endpoint is safe to mount
// unconditionally.
func Handler(e *Evaluator) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			http.Error(w, "GET only", http.StatusMethodNotAllowed)
			return
		}
		st := e.Status()
		objectives := append([]ObjectiveStatus{}, st.Objectives...)
		history := append([]Transition{}, st.History...)
		slices.SortStableFunc(history, func(a, b Transition) int { return b.Time.Compare(a.Time) })
		payload := map[string]any{
			"objectives":   objectives,
			"history":      history,
			"ticks":        st.Ticks,
			"eval_cost_ns": st.EvalCost,
			"paging":       e.Paging(),
		}
		if st.Ticks > 0 {
			payload["eval_per_tick_ns"] = int64(st.EvalCost) / int64(st.Ticks)
		}
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(payload)
	})
}
