package netio

import (
	"net/netip"
	"testing"
)

// TestGSOTrainsFitADatagram: AppendTrain cuts a run into UDP_SEGMENT
// sends of at most maxTrainBytes each, whatever the segment size, and
// of at most maxTrainSegs segments; every segment is staged exactly
// once.
func TestGSOTrainsFitADatagram(t *testing.T) {
	_, cli := pair(t, Config{Batch: 16, MTU: 2048})
	if cli.Mode() != ModeGSO {
		t.Skipf("no segmentation offload here (mode %v)", cli.Mode())
	}
	for _, seg := range []int{152, 1023, 1024, 1272, 1452} {
		const nseg = 3 * maxTrainSegs
		block := make([]byte, seg*nseg)
		cli.AppendTrain(block, seg, netip.AddrPort{})
		p := &cli.sys
		staged := 0
		for i := 0; i < p.scnt; i++ {
			n := int(p.siov[i].Len)
			if n > maxTrainBytes || int(p.segs[i]) > maxTrainSegs {
				t.Errorf("%d-byte segments: send %d carries %d bytes in %d segments, over one datagram's %d bytes or %d segments",
					seg, i, n, p.segs[i], maxTrainBytes, maxTrainSegs)
			}
			staged += int(p.segs[i])
		}
		if staged != nseg {
			t.Errorf("%d-byte segments: %d staged, want %d", seg, staged, nseg)
		}
		p.scnt, p.ucnt, p.sdg = 0, 0, 0 // discard unsent
	}
}
