package service

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"exptrain/internal/persist"
)

// kindRowRe matches one row of API.md's error-kind table:
// | `kind` | status | meaning |
var kindRowRe = regexp.MustCompile("^\\|\\s*`([a-z_]+)`\\s*\\|\\s*(\\d{3})\\s*\\|")

// TestAPIDocKindTable keeps API.md's error-kind table in lockstep with
// the registry: same kinds, same statuses, same order (the registry is
// append-only, so order is part of the contract). A registry edit
// without the matching doc edit — or vice versa — fails plain go test.
func TestAPIDocKindTable(t *testing.T) {
	f, err := os.Open(filepath.Join("..", "..", "API.md"))
	if err != nil {
		t.Fatalf("API.md must ship with the module: %v", err)
	}
	defer f.Close()

	type row struct {
		kind   string
		status int
	}
	var doc []row
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		m := kindRowRe.FindStringSubmatch(strings.TrimSpace(sc.Text()))
		if m == nil {
			continue
		}
		status, err := strconv.Atoi(m[2])
		if err != nil {
			t.Fatalf("unparseable status in API.md row %q", sc.Text())
		}
		doc = append(doc, row{kind: m[1], status: status})
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(doc) == 0 {
		t.Fatal("no kind-table rows found in API.md; did the table format change?")
	}

	reg := Kinds()
	var regRows, docRows []string
	for _, k := range reg {
		regRows = append(regRows, fmt.Sprintf("%s=%d", k.Kind, k.Status))
	}
	for _, r := range doc {
		docRows = append(docRows, fmt.Sprintf("%s=%d", r.kind, r.status))
	}
	if got, want := strings.Join(docRows, "\n"), strings.Join(regRows, "\n"); got != want {
		t.Errorf("API.md kind table out of sync with service.Kinds():\nAPI.md:\n%s\n\nregistry:\n%s", got, want)
	}
}

// TestAPIDocWalStats keeps API.md's healthz WAL metrics table in
// lockstep with persist.WalStats: same JSON field names, same order. A
// struct edit without the matching doc edit — or vice versa — fails
// plain go test. Every JSON field of Health must be documented by name
// too.
func TestAPIDocWalStats(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "..", "API.md"))
	if err != nil {
		t.Fatalf("API.md must ship with the module: %v", err)
	}
	lines := strings.Split(string(data), "\n")
	start := -1
	for i, l := range lines {
		if strings.Contains(l, "`wal` object") {
			start = i
			break
		}
	}
	if start < 0 {
		t.Fatal("API.md: Health section no longer introduces the `wal` object")
	}

	// The first table after the marker is the metrics table; it ends at
	// the first non-row line.
	rowRe := regexp.MustCompile("^\\|\\s*`([a-z0-9_]+)`\\s*\\|")
	var doc []string
	inTable := false
	for _, l := range lines[start:] {
		if m := rowRe.FindStringSubmatch(strings.TrimSpace(l)); m != nil {
			inTable = true
			doc = append(doc, m[1])
			continue
		}
		if inTable && !strings.HasPrefix(strings.TrimSpace(l), "|") {
			break
		}
	}

	var want []string
	rt := reflect.TypeOf(persist.WalStats{})
	for i := 0; i < rt.NumField(); i++ {
		want = append(want, strings.Split(rt.Field(i).Tag.Get("json"), ",")[0])
	}
	if got, w := strings.Join(doc, "\n"), strings.Join(want, "\n"); got != w {
		t.Errorf("API.md wal table out of sync with persist.WalStats:\nAPI.md:\n%s\n\nstruct:\n%s", got, w)
	}

	ht := reflect.TypeOf(Health{})
	for i := 0; i < ht.NumField(); i++ {
		name := strings.Split(ht.Field(i).Tag.Get("json"), ",")[0]
		if !strings.Contains(string(data), "`"+name+"`") {
			t.Errorf("API.md does not document the healthz `%s` field", name)
		}
	}
}
