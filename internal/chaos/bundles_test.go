// Recovery coverage for vote bundles: replicas certify from bundled
// votes, so the certificates they serve a straggler carry signatures
// over bundle roots, each with the path from the block digest to its
// root. A replica that saw none of those bundles — it was partitioned
// away while they flew — must be able to rejoin from such certificates
// alone (MsgRoundReq / MsgCertReq replies), including when one of the
// serving peers corrupts the paths it sends.
package chaos

import (
	"encoding/binary"
	"sync/atomic"
	"testing"
	"time"

	"thunderbolt/internal/node"
	"thunderbolt/internal/transport"
	"thunderbolt/internal/types"
)

// eachWireMsg calls fn for the message itself, or for every message of
// a MsgBatch frame ([type u8][uvarint len][payload], repeated).
func eachWireMsg(mt transport.MsgType, payload []byte, fn func(mt transport.MsgType, body []byte)) {
	if mt != node.MsgBatch {
		fn(mt, payload)
		return
	}
	for len(payload) > 0 {
		l, k := binary.Uvarint(payload[1:])
		if k <= 0 || uint64(len(payload)-1-k) < l {
			return
		}
		fn(transport.MsgType(payload[0]), payload[1+k:1+k+int(l)])
		payload = payload[1+k+int(l):]
	}
}

func TestScenarioRejoinFromBundledCertificates(t *testing.T) {
	h := newHarness(t, Options{N: 4, Seed: 119})
	const straggler, corruptor = 3, 1
	var served, pathed, tampered atomic.Uint64
	h.Net().SetInterceptor(func(from, to types.ReplicaID, mt transport.MsgType, payload []byte) ([]byte, bool) {
		if to != straggler {
			return payload, true
		}
		if from == corruptor {
			payload = append([]byte(nil), payload...) // the sender's buffer stays as it was
		}
		touched := false
		eachWireMsg(mt, payload, func(sub transport.MsgType, body []byte) {
			var c types.Certificate
			if sub != node.MsgCert || c.UnmarshalBinary(body) != nil {
				return
			}
			served.Add(1)
			for i := range c.Sigs {
				if len(c.Sigs[i].Path.Sibs) == 0 {
					continue
				}
				pathed.Add(1)
				if from == corruptor && !touched {
					// Same length, so the frame around it stays well
					// formed: flip one bit of the path inside the frame.
					c.Sigs[i].Path.Sibs[0][0] ^= 1
					bad, _ := c.MarshalBinary()
					copy(body, bad)
					touched = true
					tampered.Add(1)
				}
				return
			}
		})
		return payload, true
	})
	h.Run([]Event{
		{Name: "isolate 3", At: 300 * time.Millisecond,
			Do: []Fault{IsolateFault{Victim: straggler}}},
		{Name: "heal all", AfterPrev: 800 * time.Millisecond,
			Do: []Fault{HealAllFault{}}},
	})
	rep := h.RunLoadAsync(LoadOptions{
		Duration: load(2 * time.Second), Clients: 24,
		Workload: workloadCfg(0.3, 0.2),
	}).Wait()
	if rep.Committed == 0 {
		t.Fatal("no transactions committed")
	}
	h.WaitSchedule()
	quiesceAndCheckAll(t, h)

	if served.Load() == 0 {
		t.Fatal("the straggler was served no certificate: it did not rejoin through round or certificate pulls")
	}
	if pathed.Load() == 0 {
		t.Fatalf("none of the %d certificates served carried a bundled signature: bundling never engaged", served.Load())
	}
	t.Logf("certificates served to the straggler: %d, with a bundled signature: %d, tampered in flight: %d",
		served.Load(), pathed.Load(), tampered.Load())
	// The straggler is level again: it certified recent rounds itself.
	var hi [4]types.Round
	for i := range hi {
		check(t, h.Cluster().Node(i).Inspect(func(v *node.DebugView) { hi[i] = v.HighestRound }))
	}
	if hi[straggler]+10 < hi[0] {
		t.Errorf("straggler stands at round %d, replica 0 at %d", hi[straggler], hi[0])
	}
}
