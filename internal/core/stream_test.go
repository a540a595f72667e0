package core

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/internal/dialect"
	"repro/internal/sqlast"
	"repro/internal/sut"
	"repro/internal/sut/memengine"
	"repro/internal/xerr"
)

var updateDigests = flag.Bool("update", false, "rewrite testdata/stream_digests.txt from this build")

// streamSink is the hash every statement of the current database feeds.
// TestCampaignStreamDigest runs its configurations one after another, so
// one package-level sink serves the registered driver.
var streamSink = sha256.New()

const streamBackend = "stream-digest"

var registerStream sync.Once

// streamDriver opens memengine databases whose statements feed streamSink.
type streamDriver struct{}

func (streamDriver) Open(s sut.Session) (sut.DB, error) {
	db, err := sut.Open(sut.DefaultBackend, s)
	if err != nil {
		return nil, err
	}
	return &streamDB{db.(*memengine.DB)}, nil
}

// streamDB hashes each statement's SQL and its outcome: the error code,
// or the rows affected and every row's values as literals. It embeds the
// concrete memengine database, so the capabilities the writing oracles
// assert structurally (extra sessions, snapshots, crashes) stay visible,
// and it wraps extra sessions so their statements feed the sink too.
type streamDB struct{ *memengine.DB }

func record(sql string, res *sut.Result, err error) (*sut.Result, error) {
	fmt.Fprintf(streamSink, "%s\x00", sql)
	if err != nil {
		if c, ok := xerr.CodeOf(err); ok {
			fmt.Fprintf(streamSink, "E%d\n", c)
		} else {
			fmt.Fprintf(streamSink, "E?%s\n", err)
		}
		return res, err
	}
	fmt.Fprintf(streamSink, "A%d\n", res.RowsAffected)
	for _, row := range res.Rows {
		for _, v := range row {
			fmt.Fprintf(streamSink, "%s\x1f", v.Literal())
		}
		streamSink.Write([]byte{'\n'})
	}
	return res, nil
}

func (d *streamDB) Exec(sql string) (*sut.Result, error) {
	res, err := d.DB.Exec(sql)
	return record(sql, res, err)
}

func (d *streamDB) Query(sql string) (*sut.Result, error) {
	res, err := d.DB.Query(sql)
	return record(sql, res, err)
}

func (d *streamDB) ExecAST(st sqlast.Stmt) (*sut.Result, error) {
	res, err := d.DB.ExecAST(st)
	return record(sqlast.SQL(st, d.Session().Dialect), res, err)
}

func (d *streamDB) NewConn() (sut.Conn, error) {
	c, err := d.DB.NewConn()
	if err != nil {
		return nil, err
	}
	return &streamConn{Conn: c, d: d.Session().Dialect}, nil
}

// streamConn feeds an extra session's statements to the sink.
type streamConn struct {
	sut.Conn
	d dialect.Dialect
}

func (c *streamConn) Exec(sql string) (*sut.Result, error) {
	res, err := c.Conn.Exec(sql)
	return record(sql, res, err)
}

func (c *streamConn) ExecAST(st sqlast.Stmt) (*sut.Result, error) {
	res, err := c.Conn.ExecAST(st)
	return record(sqlast.SQL(st, c.d), res, err)
}

// TestCampaignStreamDigest pins what campaigns execute and what the
// engine answers: for each configuration it hashes every statement of
// Lifecycle.RunSeed over seeds 1–200 (SQL text plus result rows or
// error code, on every session) and compares the per-seed digests with
// testdata/stream_digests.txt. A change that keeps the engine's and the
// tester's behaviour keeps every digest; `go test ./internal/core -run
// TestCampaignStreamDigest -update` rewrites the file after an intended
// change.
func TestCampaignStreamDigest(t *testing.T) {
	registerStream.Do(func() { sut.Register(streamBackend, streamDriver{}) })
	configs := []struct {
		oracle  string
		d       dialect.Dialect
		storage string
	}{
		{"pqs", dialect.SQLite, ""}, {"pqs", dialect.Postgres, ""}, {"pqs", dialect.MySQL, ""},
		{"tlp", dialect.SQLite, ""}, {"norec", dialect.SQLite, ""},
		{"serializability", dialect.SQLite, ""}, {"serializability", dialect.Postgres, ""},
		{"recovery", dialect.SQLite, "pager"},
	}
	var got []string
	for _, c := range configs {
		lc := NewLifecycle(Config{Session: sut.Session{Dialect: c.d, Storage: c.storage}, Backend: streamBackend, Oracle: c.oracle})
		for seed := int64(1); seed <= 200; seed++ {
			streamSink.Reset()
			bug, err := lc.RunSeed(seed)
			if err != nil {
				t.Fatalf("%s/%s seed %d: %v", c.oracle, c.d, seed, err)
			}
			if bug != nil {
				t.Fatalf("%s/%s seed %d: detection on a fault-free engine: %s", c.oracle, c.d, seed, bug.Message)
			}
			sum := hex.EncodeToString(streamSink.Sum(nil)[:8])
			got = append(got, fmt.Sprintf("%s %s %d %s", c.oracle, c.d, seed, sum))
		}
		lc.Close()
	}

	path := filepath.Join("testdata", "stream_digests.txt")
	if *updateDigests {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var want []string
	for sc := bufio.NewScanner(f); sc.Scan(); {
		want = append(want, sc.Text())
	}
	if len(want) != len(got) {
		t.Fatalf("%d digests, golden file has %d", len(got), len(want))
	}
	bad := 0
	for i := range got {
		if got[i] != want[i] {
			if bad++; bad <= 10 {
				t.Errorf("stream diverged: got %q, want %q", got[i], want[i])
			}
		}
	}
	if bad > 0 {
		t.Errorf("%d of %d seeds diverged", bad, len(got))
	}
}
