package netem

import (
	"io"
	"net"
	"testing"
	"time"

	"dragonfly/internal/trace"
)

// drain reads everything from r until EOF, returning total bytes.
func drain(t *testing.T, r io.Reader, done chan<- int) {
	t.Helper()
	total := 0
	buf := make([]byte, 32<<10)
	for {
		n, err := r.Read(buf)
		total += n
		if err != nil {
			done <- total
			return
		}
	}
}

func TestPacingMatchesTrace(t *testing.T) {
	// 8 Mbps flat: 1e6 bytes should take ~1 second.
	link := Link{Trace: &trace.BandwidthTrace{SamplePeriod: time.Second, Mbps: []float64{8}}}
	client, server := pipe(link)
	done := make(chan int, 1)
	go drain(t, client, done)

	payload := make([]byte, 1_000_000)
	begin := time.Now()
	if _, err := server.Write(payload); err != nil {
		t.Fatal(err)
	}
	elapsed := time.Since(begin)
	server.Close()
	if got := <-done; got != len(payload) {
		t.Fatalf("read %d bytes", got)
	}
	if elapsed < 900*time.Millisecond || elapsed > 1400*time.Millisecond {
		t.Errorf("1 MB at 8 Mbps took %v, want ~1s", elapsed)
	}
}

func TestPacingFollowsRateChange(t *testing.T) {
	// 4 Mbps then 40 Mbps: 1 MB = 0.5 MB in 1 s, remaining 0.5 MB in 0.1 s.
	link := Link{Trace: &trace.BandwidthTrace{SamplePeriod: time.Second, Mbps: []float64{4, 40}}}
	client, server := pipe(link)
	done := make(chan int, 1)
	go drain(t, client, done)
	begin := time.Now()
	if _, err := server.Write(make([]byte, 1_000_000)); err != nil {
		t.Fatal(err)
	}
	elapsed := time.Since(begin)
	server.Close()
	<-done
	if elapsed < time.Second || elapsed > 1600*time.Millisecond {
		t.Errorf("took %v, want ~1.1s", elapsed)
	}
}

func TestUnshapedPassThrough(t *testing.T) {
	client, server := pipe(Link{})
	done := make(chan int, 1)
	go drain(t, client, done)
	begin := time.Now()
	if _, err := server.Write(make([]byte, 1_000_000)); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(begin); elapsed > 300*time.Millisecond {
		t.Errorf("unshaped write took %v", elapsed)
	}
	server.Close()
	<-done
}

func TestWrapListenerTCP(t *testing.T) {
	inner, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer inner.Close()
	link := Link{Trace: &trace.BandwidthTrace{SamplePeriod: time.Second, Mbps: []float64{16}}}
	l := WrapListener(inner, link)

	accepted := make(chan net.Conn, 1)
	go func() {
		c, err := l.Accept()
		if err == nil {
			accepted <- c
		}
	}()
	client, err := net.Dial("tcp", inner.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	server := <-accepted
	defer server.Close()

	done := make(chan int, 1)
	go drain(t, client, done)
	begin := time.Now()
	// 1 MB at 16 Mbps = ~0.5 s.
	if _, err := server.Write(make([]byte, 1_000_000)); err != nil {
		t.Fatal(err)
	}
	elapsed := time.Since(begin)
	server.Close()
	if elapsed < 400*time.Millisecond || elapsed > time.Second {
		t.Errorf("1 MB at 16 Mbps over TCP took %v, want ~0.5s", elapsed)
	}
}

func TestConcurrentWritesShareLink(t *testing.T) {
	// Two goroutines writing concurrently must share the same virtual
	// transmission clock (total time ~ sum of bytes / rate).
	link := Link{Trace: &trace.BandwidthTrace{SamplePeriod: time.Second, Mbps: []float64{8}}}
	client, server := pipe(link)
	done := make(chan int, 1)
	go drain(t, client, done)
	begin := time.Now()
	errs := make(chan error, 2)
	for i := 0; i < 2; i++ {
		go func() {
			_, err := server.Write(make([]byte, 500_000))
			errs <- err
		}()
	}
	for i := 0; i < 2; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	elapsed := time.Since(begin)
	server.Close()
	<-done
	if elapsed < 900*time.Millisecond {
		t.Errorf("concurrent writers finished in %v; link not shared", elapsed)
	}
}
