package profiling

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"

	"alpusim/internal/obs"
)

func TestWriteOutputFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "out.txt")
	if err := WriteOutput(path, func(w io.Writer) error {
		_, err := io.WriteString(w, "hello\n")
		return err
	}); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "hello\n" {
		t.Errorf("file holds %q, want %q", got, "hello\n")
	}
}

func TestWriteOutputErrors(t *testing.T) {
	boom := errors.New("boom")
	path := filepath.Join(t.TempDir(), "out.txt")
	if err := WriteOutput(path, func(io.Writer) error { return boom }); !errors.Is(err, boom) {
		t.Errorf("write error = %v, want %v", err, boom)
	}
	missing := filepath.Join(t.TempDir(), "no", "such", "dir", "out.txt")
	if err := WriteOutput(missing, func(io.Writer) error { return nil }); err == nil {
		t.Error("create in a missing directory did not fail")
	}
}

// "-" writes to os.Stdout, whatever it is at call time.
func TestWriteOutputStdout(t *testing.T) {
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	saved := os.Stdout
	os.Stdout = w
	var gotW io.Writer
	err = WriteOutput("-", func(out io.Writer) error {
		gotW = out
		_, err := io.WriteString(out, "to stdout\n")
		return err
	})
	os.Stdout = saved
	w.Close()
	if err != nil {
		t.Fatal(err)
	}
	if gotW != w {
		t.Error(`"-" did not write to os.Stdout`)
	}
	got, err := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "to stdout\n" {
		t.Errorf("stdout got %q", got)
	}
	if _, err := os.Stat("-"); err == nil {
		t.Error(`WriteOutput("-") created a file named "-"`)
	}
}

func TestServeEmptyAddrIsNoop(t *testing.T) {
	srv, stop, err := Serve("test", "", obs.Options{}, 0, "run")
	if err != nil {
		t.Fatal(err)
	}
	if srv != nil {
		t.Error("empty address started a server")
	}
	stop() // must not panic or block
}

func TestServeStartsAndStops(t *testing.T) {
	srv, stop, err := Serve("test", "127.0.0.1:0", obs.Options{}, 0, "run")
	if err != nil {
		t.Fatal(err)
	}
	if srv == nil {
		t.Fatal("no server for a non-empty address")
	}
	stop()
}
