// Package services exposes the platform components as Vinci services —
// the paper's "collection of Web service APIs" that let application
// developers use the platform remotely. Each component registers a
// handler on a vinci.Registry; typed clients wrap a vinci.Client (local
// or TCP) so remote and in-process use look identical.
package services

import (
	"encoding/json"
	"fmt"
	"strconv"
	"strings"

	"webfountain/internal/index"
	"webfountain/internal/serve"
	"webfountain/internal/store"
	"webfountain/internal/vinci"
)

// Service names.
const (
	StoreService     = "store"
	IndexService     = "index"
	SentimentService = "sentiment"
)

// --- store service ---

// Store is what the store service serves. *store.Store is one; a
// serving node passes webfountain.ServingStore, whose puts are mined
// and indexed through its serving tier.
type Store interface {
	Get(id string) (*store.Entity, bool)
	Put(e *store.Entity) error
	Delete(id string) error
	Len() int
	IDs() []string
}

// RegisterStore exposes an entity store: ops get, put, delete, count,
// ids. Entities travel as XML (the store's native representation).
func RegisterStore(reg *vinci.Registry, st Store) {
	reg.Register(StoreService, func(req vinci.Request) vinci.Response {
		switch req.Op {
		case "get":
			e, ok := st.Get(req.Param("id"))
			if !ok {
				return vinci.Errorf("store: no entity %q", req.Param("id"))
			}
			data, err := e.MarshalIndent()
			if err != nil {
				return vinci.Errorf("store: encode: %v", err)
			}
			return vinci.OKResponse(map[string]string{"entity": string(data)})
		case "put":
			e, err := store.ParseEntity([]byte(req.Param("entity")))
			if err != nil {
				return vinci.Errorf("store: %v", err)
			}
			if err := st.Put(e); err != nil {
				return vinci.Errorf("store: %v", err)
			}
			return vinci.OKResponse(map[string]string{"id": e.ID})
		case "delete":
			if err := st.Delete(req.Param("id")); err != nil {
				return vinci.Errorf("store: %v", err)
			}
			return vinci.OKResponse(nil)
		case "count":
			return vinci.OKResponse(map[string]string{"count": strconv.Itoa(st.Len())})
		case "ids":
			return vinci.OKResponse(map[string]string{"ids": strings.Join(st.IDs(), " ")})
		}
		return vinci.Errorf("store: unknown op %q", req.Op)
	})
}

// StoreClient is the typed client for the store service.
type StoreClient struct{ C vinci.Client }

// Get fetches an entity by ID.
func (sc StoreClient) Get(id string) (*store.Entity, error) {
	resp, err := sc.C.Call(vinci.Request{Service: StoreService, Op: "get", Params: map[string]string{"id": id}})
	if err != nil {
		return nil, err
	}
	if !resp.OK {
		return nil, fmt.Errorf("%s", resp.Error)
	}
	return store.ParseEntity([]byte(resp.Fields["entity"]))
}

// Put stores an entity.
func (sc StoreClient) Put(e *store.Entity) error {
	data, err := e.MarshalIndent()
	if err != nil {
		return err
	}
	resp, err := sc.C.Call(vinci.Request{Service: StoreService, Op: "put", Params: map[string]string{"entity": string(data)}})
	if err != nil {
		return err
	}
	if !resp.OK {
		return fmt.Errorf("%s", resp.Error)
	}
	return nil
}

// Delete removes an entity.
func (sc StoreClient) Delete(id string) error {
	resp, err := sc.C.Call(vinci.Request{Service: StoreService, Op: "delete", Params: map[string]string{"id": id}})
	if err != nil {
		return err
	}
	if !resp.OK {
		return fmt.Errorf("%s", resp.Error)
	}
	return nil
}

// IDs returns every stored entity ID, sorted.
func (sc StoreClient) IDs() ([]string, error) {
	resp, err := sc.C.Call(vinci.Request{Service: StoreService, Op: "ids"})
	if err != nil {
		return nil, err
	}
	if !resp.OK {
		return nil, fmt.Errorf("%s", resp.Error)
	}
	if resp.Fields["ids"] == "" {
		return nil, nil
	}
	return strings.Fields(resp.Fields["ids"]), nil
}

// Count returns the entity count.
func (sc StoreClient) Count() (int, error) {
	resp, err := sc.C.Call(vinci.Request{Service: StoreService, Op: "count"})
	if err != nil {
		return 0, err
	}
	if !resp.OK {
		return 0, fmt.Errorf("%s", resp.Error)
	}
	return strconv.Atoi(resp.Fields["count"])
}

// --- index service ---

// RegisterIndex exposes an inverted index: ops search (mode=all|any|
// phrase over space-separated terms), docfreq and numdocs. Every call
// reads the index that ix returns, so a platform's lazily built index
// (webfountain.Platform.InvertedIndex) is built by the first call, as by
// its first search. A search carrying a deadline budget is evaluated
// under that deadline and shed with a deadline-exceeded response when
// it cannot finish in time.
func RegisterIndex(reg *vinci.Registry, ix func() *index.Index) {
	reg.Register(IndexService, func(req vinci.Request) vinci.Response {
		switch req.Op {
		case "search":
			terms := strings.Fields(req.Param("terms"))
			if len(terms) == 0 {
				return vinci.Errorf("index: empty terms")
			}
			var q index.Query
			switch mode := req.Param("mode"); mode {
			case "", "all":
				qs := make([]index.Query, len(terms))
				for i, t := range terms {
					qs[i] = index.Term(t)
				}
				q = index.And(qs...)
			case "any":
				qs := make([]index.Query, len(terms))
				for i, t := range terms {
					qs[i] = index.Term(t)
				}
				q = index.Or(qs...)
			case "phrase":
				q = index.Phrase(terms...)
			default:
				return vinci.Errorf("index: unknown mode %q", mode)
			}
			deadline, _ := req.Deadline()
			ids, err := ix().SearchWithDeadline(q, deadline)
			if err != nil {
				return vinci.DeadlineExceededResponse("index: search shed: " + err.Error())
			}
			return vinci.OKResponse(map[string]string{
				"ids":   strings.Join(ids, " "),
				"count": strconv.Itoa(len(ids)),
			})
		case "docfreq":
			return vinci.OKResponse(map[string]string{"count": strconv.Itoa(ix().DocFreq(req.Param("term")))})
		case "numdocs":
			return vinci.OKResponse(map[string]string{"count": strconv.Itoa(ix().NumDocs())})
		}
		return vinci.Errorf("index: unknown op %q", req.Op)
	})
}

// IndexClient is the typed client for the index service.
type IndexClient struct{ C vinci.Client }

// Search runs a term query; mode is "all", "any" or "phrase".
func (ic IndexClient) Search(mode string, terms ...string) ([]string, error) {
	resp, err := ic.C.Call(vinci.Request{Service: IndexService, Op: "search", Params: map[string]string{
		"mode":  mode,
		"terms": strings.Join(terms, " "),
	}})
	if err != nil {
		return nil, err
	}
	if !resp.OK {
		return nil, fmt.Errorf("%s", resp.Error)
	}
	if resp.Fields["ids"] == "" {
		return nil, nil
	}
	return strings.Fields(resp.Fields["ids"]), nil
}

// DocFreq returns the document frequency of a term.
func (ic IndexClient) DocFreq(term string) (int, error) {
	resp, err := ic.C.Call(vinci.Request{Service: IndexService, Op: "docfreq", Params: map[string]string{"term": term}})
	if err != nil {
		return 0, err
	}
	if !resp.OK {
		return 0, fmt.Errorf("%s", resp.Error)
	}
	return strconv.Atoi(resp.Fields["count"])
}

// --- sentiment service ---

// RegisterSentiment exposes the sentiment served from src's current
// View: ops query (the subject's entries, as JSON inside one response
// field — the JSON of /api/sentiment) and counts. Each call reads one
// View.
func RegisterSentiment(reg *vinci.Registry, src interface{ View() *serve.View }) {
	reg.Register(SentimentService, func(req vinci.Request) vinci.Response {
		subject := req.Param("subject")
		if subject == "" {
			return vinci.Errorf("sentiment: missing subject")
		}
		switch req.Op {
		case "query":
			entries := src.View().Entries(subject)
			if entries == nil {
				entries = []serve.Entry{}
			}
			data, err := json.Marshal(entries)
			if err != nil {
				return vinci.Errorf("sentiment: encode: %v", err)
			}
			return vinci.OKResponse(map[string]string{"entries": string(data)})
		case "counts":
			c := src.View().Counts(subject)
			return vinci.OKResponse(map[string]string{
				"positive": strconv.Itoa(c.Positive),
				"negative": strconv.Itoa(c.Negative),
			})
		}
		return vinci.Errorf("sentiment: unknown op %q", req.Op)
	})
}

// SentimentClient is the typed client for the sentiment service.
type SentimentClient struct{ C vinci.Client }

// Query fetches a subject's served sentiment entries.
func (sc SentimentClient) Query(subject string) ([]serve.Entry, error) {
	resp, err := sc.C.Call(vinci.Request{Service: SentimentService, Op: "query", Params: map[string]string{"subject": subject}})
	if err != nil {
		return nil, err
	}
	if !resp.OK {
		return nil, fmt.Errorf("%s", resp.Error)
	}
	var entries []serve.Entry
	if err := json.Unmarshal([]byte(resp.Fields["entries"]), &entries); err != nil {
		return nil, fmt.Errorf("sentiment: decode: %w", err)
	}
	return entries, nil
}

// Counts fetches a subject's aggregate sentiment.
func (sc SentimentClient) Counts(subject string) (positive, negative int, err error) {
	resp, err := sc.C.Call(vinci.Request{Service: SentimentService, Op: "counts", Params: map[string]string{"subject": subject}})
	if err != nil {
		return 0, 0, err
	}
	if !resp.OK {
		return 0, 0, fmt.Errorf("%s", resp.Error)
	}
	positive, err = strconv.Atoi(resp.Fields["positive"])
	if err != nil {
		return 0, 0, err
	}
	negative, err = strconv.Atoi(resp.Fields["negative"])
	return positive, negative, err
}
