package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"
)

// FuzzQueryParams sends arbitrary node, class, type, op, label and module
// values to the lineage, subgraph, find, delete and zoom queries, over a
// small snapshot and over a session on it. Every answer must be a 200 or
// a 4xx with a JSON error body: never a panic (the handler is called
// directly, so one fails the test) and never a 5xx.
func FuzzQueryParams(f *testing.F) {
	svc := NewService(nil)
	defer svc.Registry().Close()
	h := svc.Handler(saveSnapshot(f))
	sess, err := svc.CreateSession("serve")
	if err != nil {
		f.Fatal(err)
	}

	f.Add("0", "p", "tuple", "+", "item0", "M_match")
	f.Add("3", "v", "o", "·", "", "M_src")
	f.Add("-1", "x", "zoom", "δ", "M_match", "")
	f.Add("99999999999", "", "", "agg", "\x00", "M_nope")
	f.Add("1e3", "P", "I", "const", "·", "M_match")

	f.Fuzz(func(t *testing.T, node, class, typ, op, label, module string) {
		check := func(method, target, body string) {
			req := httptest.NewRequest(method, target, strings.NewReader(body))
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, req)
			if rec.Code == http.StatusOK {
				return
			}
			var answer struct {
				Error string `json:"error"`
			}
			if rec.Code >= 500 || rec.Code < 400 || json.Unmarshal(rec.Body.Bytes(), &answer) != nil || answer.Error == "" {
				t.Fatalf("%s %s %s: status %d, body %q", method, target, body, rec.Code, rec.Body.String())
			}
		}
		nodeQ := "?" + url.Values{"node": {node}}.Encode()
		findQ := "?" + url.Values{"class": {class}, "type": {typ}, "op": {op}, "label": {label}, "module": {module}}.Encode()
		zoomQ := "?" + url.Values{"module": {module}}.Encode()
		for _, prefix := range []string{"/v1/", "/v1/snapshots/serve/"} {
			for _, q := range []string{"lineage" + nodeQ, "subgraph" + nodeQ, "delete" + nodeQ, "find" + findQ, "zoom" + zoomQ} {
				check(http.MethodGet, prefix+q, "")
			}
		}

		s := "/v1/sessions/" + sess.ID + "/"
		for _, q := range []string{"lineage" + nodeQ, "subgraph" + nodeQ, "find" + findQ} {
			check(http.MethodGet, s+q, "")
		}
		modules, _ := json.Marshal(map[string][]string{"modules": {module}})
		check(http.MethodPost, s+"zoom", string(modules))
		check(http.MethodPost, s+"zoom", `{"in": true}`)
		check(http.MethodPost, s+"delete", fmt.Sprintf(`{"nodes": [%s], "whatIf": true}`, node))
	})
}
