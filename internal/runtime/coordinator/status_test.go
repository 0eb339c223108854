package coordinator

import (
	"bytes"
	"encoding/json"
	"net"
	"testing"
	"time"
)

// A request that still carries the removed "shards" field — an older
// procctl-top -shards — is a plain status request: the field is unknown,
// so the line goes through the encoding/json fallback, and the reply has
// no shard table or admission block to put in it.
func TestStatusIgnoresShardsField(t *testing.T) {
	_, sock := startServer(t, 8)
	c, err := Dial("unix", sock)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.RegisterWeighted("wired", 4, 0); err != nil {
		t.Fatal(err)
	}
	plain, err := c.Status()
	if err != nil {
		t.Fatal(err)
	}

	line := []byte(`{"op":"status","shards":true}`)
	var req Request
	var spin float64
	if scanRequest(line, &req, &spin, allocName) {
		t.Errorf("the scanner took %s: \"shards\" is not a field any more", line)
	}
	if err := decodeRequest(line, &req, &spin, allocName); err != nil || req != (Request{Op: OpStatus}) {
		t.Fatalf("decodeRequest(%s) = %+v, %v; want a plain status request", line, req, err)
	}
	conn, err := net.Dial("unix", sock)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	_ = conn.SetDeadline(time.Now().Add(10 * time.Second))
	if _, err := conn.Write(append(line, '\n')); err != nil {
		t.Fatal(err)
	}
	rd := lineReader{r: conn}
	reply, err := rd.readLine()
	if err != nil {
		t.Fatal(err)
	}
	var resp Response
	if err := json.Unmarshal(reply, &resp); err != nil || !resp.OK || resp.Status == nil {
		t.Fatalf("reply %.200s: %v", reply, err)
	}
	if bytes.Contains(reply, []byte(`"shards"`)) || bytes.Contains(reply, []byte(`"admission"`)) {
		t.Errorf("status reply still carries a shard table or admission block: %.300s", reply)
	}
	if len(resp.Status.Apps) != len(plain.Apps) || resp.Status.Apps[0].Name != "wired" {
		t.Errorf("status with the old field lists %+v, a plain one %+v", resp.Status.Apps, plain.Apps)
	}
}
