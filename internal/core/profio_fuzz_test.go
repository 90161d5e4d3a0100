package core

import (
	"bytes"
	"errors"
	"fmt"
	"hash/crc32"
	"runtime"
	"strings"
	"testing"
)

// profileSeed serializes a small real profile for the fuzzer and the
// format-integrity tests.
func profileSeed(t interface {
	Helper()
	Fatalf(string, ...any)
}) []byte {
	t.Helper()
	b := bytes.Buffer{}
	res, err := Run(producerConsumerProg(16, 2), Options{TrackReuse: true}, nil)
	if err != nil {
		t.Fatalf("profiling seed workload: %v", err)
	}
	if err := WriteProfile(&b, res); err != nil {
		t.Fatalf("WriteProfile: %v", err)
	}
	return b.Bytes()
}

// FuzzReadProfile checks the text-profile parser never panics or
// over-allocates on corrupt input — profiles are meant to be shared between
// machines, so the reader must survive files it did not write.
func FuzzReadProfile(f *testing.F) {
	seed := profileSeed(f)
	f.Add(seed)
	f.Add([]byte(profileMagic + "\n"))
	f.Add([]byte(retiredProfileMagic + "\n"))
	f.Add([]byte(signedProfile("ctx 0 -1 1 \"main\"\ncost 0 1 2 3 4 5 6 7 8 9 10 11 12 13\n")))
	// Historic crashers: negative ids indexed slices, huge ids allocated
	// them. Signed like real profiles, they reach the checks behind the
	// footer too.
	f.Add([]byte(signedProfile("ctx -5 -1 1 \"x\"\n")))
	f.Add([]byte(signedProfile("ctx 0 -1 1 \"x\"\ncost 18446744073709551615 1 2 3 4 5 6 7 8 9 10 11 12 13\n")))
	f.Add([]byte(signedProfile("comm 99999999999 1 2 3 4 5 6\n")))
	f.Add([]byte(signedProfile("ctx 0 1 1 \"a\"\nctx 1 0 1 \"b\"\n")))
	f.Add(bytes.Replace(seed, []byte("end "), []byte("end 0 "), 1))
	f.Add(seed[:len(seed)/2])
	f.Add([]byte(signedProfile(hostileUndeclaredBody())))
	f.Add([]byte(signedProfile(hostileHistBody())))

	f.Fuzz(func(t *testing.T, data []byte) {
		res, err := ReadProfile(bytes.NewReader(data))
		if err != nil {
			return
		}
		// Accepted profiles must be safe to analyze.
		_ = res.CommByFunction()
		_ = res.TotalCommunicated()
		_ = res.CtxName(0)
		for _, n := range res.Profile.Nodes {
			_ = n.Path()
		}
	})
}

// retiredProfileMagic is the header of the footer-less first profile
// format, which the reader refuses.
const retiredProfileMagic = "# sigil profile v1"

// signedProfile frames a record body as WriteProfile would: the header, the
// records, and an end record whose count and CRC match them, so a reader
// that refuses it does so for the records themselves.
func signedProfile(body string) string {
	var crc uint32
	records := 0
	for _, line := range strings.SplitAfter(body, "\n") {
		if strings.TrimSpace(line) != "" {
			crc = crc32.Update(crc, crc32.IEEETable, []byte(line))
			records++
		}
	}
	return fmt.Sprintf("%s\n%send %d %d\n", profileMagic, body, records, crc)
}

// hostileUndeclaredBody is a profile body under 1 KB that once made the
// reader allocate gigabytes: comm, reuse and rhist records on ids no ctx
// record declared, each rhist at a bin near the old per-context cap.
func hostileUndeclaredBody() string {
	var b strings.Builder
	fmt.Fprintf(&b, "comm %d 1 1 1 1 1 1\n", maxProfileID-1)
	for i := 0; i < 16; i++ {
		id := maxProfileID - 1 - i
		fmt.Fprintf(&b, "reuse %d 1 0 0 1 1 1 1\nrhist %d 4194303 1\n", id, id)
	}
	return b.String()
}

// hostileHistBody declares its 16 contexts and claims a run long enough
// that every rhist bin passes the run-length bound, so only the
// whole-profile bin budget stops it from allocating gigabytes.
func hostileHistBody() string {
	var b strings.Builder
	b.WriteString("total 4611686018427387904\n")
	for id := 0; id < 16; id++ {
		fmt.Fprintf(&b, "ctx %d %d 1 \"f\"\n", id, id-1)
	}
	for id := 0; id < 16; id++ {
		fmt.Fprintf(&b, "reuse %d 1 0 0 1 1 1 1\nrhist %d 4194303 1\n", id, id)
	}
	return b.String()
}

func TestReadProfileRejectsHostileIDs(t *testing.T) {
	cases := map[string]string{
		"negative ctx":   "ctx -5 -1 1 \"x\"\n",
		"huge ctx":       "ctx 9999999 -1 1 \"x\"\n",
		"huge cost id":   "ctx 0 -1 1 \"x\"\ncost 18446744073709551615 1 2 3 4 5 6 7 8 9 10 11 12 13\n",
		"huge comm id":   "comm 99999999999 1 2 3 4 5 6\n",
		"huge reuse id":  "reuse 99999999999 1 2 3 4 5 6 7\n",
		"huge rhist bin": "ctx 0 -1 1 \"x\"\ncost 0 1 2 3 4 5 6 7 8 9 10 11 12 13\nreuse 0 1 2 3 4 5 6 7\nrhist 0 99999999 5\n",
		"parent cycle":   "ctx 0 1 1 \"a\"\nctx 1 0 1 \"b\"\n",
		"self parent":    "ctx 0 0 1 \"a\"\n",
		"negative calls": "ctx 0 -1 -4 \"a\"\n",
		"huge line size": "lines 99999999999 1 1 1 1 1 1\n",
		"undeclared ids": hostileUndeclaredBody(),
		"hist budget":    hostileHistBody(),
		"bin past total": "total 999\nctx 0 -1 1 \"x\"\nreuse 0 1 0 0 1 1 1 1\nrhist 0 1 1\n",
	}
	const allocBound = 64 << 20
	for name, body := range cases {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := ReadProfile(strings.NewReader(signedProfile(body)))
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Errorf("%s accepted", name)
		}
		if errors.Is(err, ErrProfileTruncated) || errors.Is(err, ErrProfileCorrupt) {
			t.Errorf("%s refused by its footer, not its records: %v", name, err)
		}
		if n := after.TotalAlloc - before.TotalAlloc; n >= allocBound {
			t.Errorf("%s: reader allocated %d bytes, want < %d", name, n, allocBound)
		}
	}
}

// TestReadProfileRejectsRetiredHeader: a real profile under the retired
// footer-less header is refused, not read without its checksum.
func TestReadProfileRejectsRetiredHeader(t *testing.T) {
	seed := profileSeed(t)
	old := bytes.Replace(seed, []byte(profileMagic), []byte(retiredProfileMagic), 1)
	if _, err := ReadProfile(bytes.NewReader(old)); err == nil || !strings.Contains(err.Error(), "bad header") {
		t.Fatalf("retired header: err = %v, want bad header", err)
	}
}

func TestReadProfileTruncated(t *testing.T) {
	seed := profileSeed(t)
	// Cut at several line boundaries and mid-line: every cut must be
	// detected (missing footer), never silently under-report.
	for _, frac := range []int{4, 3, 2} {
		cut := len(seed) * (frac - 1) / frac
		_, err := ReadProfile(bytes.NewReader(seed[:cut]))
		if err == nil {
			t.Fatalf("cut at %d accepted", cut)
		}
	}
	_, err := ReadProfile(bytes.NewReader(seed[:len(seed)-2]))
	if err == nil {
		t.Fatal("footer-less profile accepted")
	}
}

func TestReadProfileCorrupt(t *testing.T) {
	seed := profileSeed(t)
	// Damage one digit of a record line; the footer checksum must notice.
	idx := bytes.Index(seed, []byte("cost "))
	mut := append([]byte{}, seed...)
	mut[idx+5] = '9'
	_, err := ReadProfile(bytes.NewReader(mut))
	if err == nil {
		t.Fatalf("corrupt profile accepted")
	}
	// Garbage after the footer is also corruption.
	_, err = ReadProfile(bytes.NewReader(append(append([]byte{}, seed...), []byte("comm 0 1 2 3 4 5 6\n")...)))
	if !errors.Is(err, ErrProfileCorrupt) {
		t.Fatalf("record after footer: err = %v", err)
	}
}

func TestWriteProfileFileAtomic(t *testing.T) {
	res, err := Run(producerConsumerProg(8, 1), Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	path := dir + "/p.profile"
	if err := WriteProfileFile(path, res); err != nil {
		t.Fatal(err)
	}
	f, err := ReadProfileFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if f.Profile.TotalInstrs != res.Profile.TotalInstrs {
		t.Error("round-trip through file lost totals")
	}
}
