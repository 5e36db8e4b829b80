// Command thunderbolt runs Thunderbolt replicas and gateway clients.
//
// Local cluster (one process, simulated network):
//
//	thunderbolt -local 4 -duration 10s -mode ce
//
// Multi-process replica (TCP, one process per replica):
//
//	thunderbolt -id 0 -peers 0=127.0.0.1:7000,1=127.0.0.1:7001,2=127.0.0.1:7002,3=127.0.0.1:7003
//
// Remote gateway client (sessioned submission against a running TCP
// committee — acks, nack re-routing, failover, commit pushes):
//
//	thunderbolt -client -peers 0=...,1=...,2=...,3=... -session 7 -duration 30s
//
// Every process of a committee must be given the same -peers list and
// -seed (keys are derived deterministically from the seed, replacing
// a key-distribution ceremony for local testbeds).
package main

import (
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"thunderbolt"
	"thunderbolt/internal/contract"
	"thunderbolt/internal/crypto"
	"thunderbolt/internal/gateway"
	"thunderbolt/internal/node"
	"thunderbolt/internal/storage"
	"thunderbolt/internal/transport"
	"thunderbolt/internal/types"
	"thunderbolt/internal/workload"
)

func main() {
	var (
		local    = flag.Int("local", 0, "run an n-replica local cluster instead of one TCP replica")
		duration = flag.Duration("duration", 10*time.Second, "local mode: load duration")
		clients  = flag.Int("clients", 16, "local mode: closed-loop clients")
		mode     = flag.String("mode", "ce", "execution mode: ce | occ | tusk")

		id       = flag.Int("id", -1, "replica ID (TCP mode)")
		peersArg = flag.String("peers", "", "comma-separated id=host:port for every replica")
		seed     = flag.Int64("seed", 42, "committee key seed")
		accounts = flag.Int("accounts", 1000, "SmallBank accounts")
		batch    = flag.Int("batch", 500, "transactions per block")
		kFlag    = flag.Int("k", 0, "silent-proposer rounds before a Shift vote (0=off)")
		kPrime   = flag.Int("kprime", 0, "periodic reconfiguration period in rounds (0=off)")
		scheme   = flag.String("scheme", "ed25519", "signature scheme: ed25519 | insecure")
		dataDir  = flag.String("data-dir", "", "TCP mode: durable WAL storage directory (empty = in-memory; a restart with the same directory recovers committed state from disk)")

		client  = flag.Bool("client", false, "run a remote gateway client against -peers instead of a replica")
		session = flag.Uint64("session", 1, "client mode: gateway session ID (unique per client lifetime)")

		debugAddr = flag.String("debug-addr", "", "serve /metrics, /debug/flight and /debug/pprof on this host:port (empty = off)")
	)
	flag.Parse()

	if *client {
		runClient(*peersArg, *session, *duration, *accounts, *seed)
		return
	}
	m, err := parseMode(*mode)
	if err != nil {
		log.Fatal(err)
	}
	if *local > 0 {
		runLocal(*local, m, *duration, *clients, *accounts, *batch, *kFlag, *kPrime, *seed, *debugAddr)
		return
	}
	runTCP(*id, *peersArg, m, *accounts, *batch, *kFlag, *kPrime, *seed, *scheme, *dataDir, *debugAddr)
}

// runClient streams sessioned transactions at a running TCP committee
// through the gateway protocol and reports progress.
func runClient(peersArg string, session uint64, duration time.Duration, accounts int, seed int64) {
	if peersArg == "" {
		log.Fatal("client mode needs -peers")
	}
	peers := parsePeers(peersArg)
	tr, err := transport.NewTCPTransport(transport.TCPConfig{
		Self:   gateway.ClientIDBase + types.ReplicaID(session),
		Listen: "127.0.0.1:0", Peers: peers,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer tr.Close()
	gw, err := gateway.NewClient(gateway.ClientConfig{
		Transport: tr, N: len(peers), Session: session,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer gw.Close()
	newGen := func(s uint64) *workload.Generator {
		return workload.NewGenerator(workload.Config{
			Accounts: accounts, Shards: len(peers), Theta: 0.85, ReadRatio: 0.5,
			Seed: seed*31 + int64(s), Client: s,
		})
	}
	gen := newGen(session)
	log.Printf("gateway client: session %d against %d replicas for %v", session, len(peers), duration)
	var committed, duplicates, reroutes, failovers int
	deadline := time.Now().Add(duration)
	for time.Now().Before(deadline) {
		res, err := gw.SubmitWait(gen.Next(), 30*time.Second)
		if err != nil {
			log.Printf("submission failed: %v", err)
			if errors.Is(err, gateway.ErrWindowStalled) {
				// An abandoned nonce wedged the window; open a fresh
				// session (sessions are disposable by contract).
				session += 1000
				gen = newGen(session)
				log.Printf("window stalled; rotated to session %d", session)
			}
			continue
		}
		committed++
		reroutes += res.Reroutes
		failovers += res.Failovers
		if res.Duplicate {
			duplicates++
		}
		if committed%100 == 0 {
			log.Printf("committed=%d duplicates=%d reroutes=%d failovers=%d",
				committed, duplicates, reroutes, failovers)
		}
	}
	log.Printf("done: committed=%d duplicates=%d reroutes=%d failovers=%d",
		committed, duplicates, reroutes, failovers)
}

func parsePeers(peersArg string) map[types.ReplicaID]string {
	peers := map[types.ReplicaID]string{}
	for _, part := range strings.Split(peersArg, ",") {
		kv := strings.SplitN(strings.TrimSpace(part), "=", 2)
		if len(kv) != 2 {
			log.Fatalf("bad peer entry %q (want id=host:port)", part)
		}
		pid, err := strconv.Atoi(kv[0])
		if err != nil {
			log.Fatalf("bad peer id %q", kv[0])
		}
		peers[types.ReplicaID(pid)] = kv[1]
	}
	return peers
}

func parseMode(s string) (thunderbolt.Mode, error) {
	switch s {
	case "ce":
		return thunderbolt.ModeThunderbolt, nil
	case "occ":
		return thunderbolt.ModeThunderboltOCC, nil
	case "tusk":
		return thunderbolt.ModeTusk, nil
	}
	return 0, fmt.Errorf("unknown mode %q (want ce|occ|tusk)", s)
}

func runLocal(n int, m thunderbolt.Mode, duration time.Duration, clients, accounts, batch, k, kprime int, seed int64, debugAddr string) {
	c, err := thunderbolt.NewCluster(thunderbolt.ClusterConfig{
		N: n, Mode: m, Accounts: accounts, BatchSize: batch,
		K: k, KPrime: kprime, Seed: seed,
	})
	if err != nil {
		log.Fatal(err)
	}
	c.Start()
	defer c.Stop()
	if debugAddr != "" {
		nodes := make([]*node.Node, n)
		for i := 0; i < n; i++ {
			nodes[i] = c.Node(i)
		}
		startDebugServer(debugAddr, nodes, c.Network().Metrics())
	}
	fmt.Printf("local cluster: %d replicas, mode %s, %v of load...\n", n, m, duration)
	rep := c.RunLoad(thunderbolt.LoadConfig{
		Duration: duration, Clients: clients,
		Workload: thunderbolt.WorkloadConfig{Theta: 0.85, ReadRatio: 0.5},
	})
	fmt.Println(rep)
}

func runTCP(id int, peersArg string, m thunderbolt.Mode, accounts, batch, k, kprime int, seed int64, schemeName, dataDir, debugAddr string) {
	if id < 0 || peersArg == "" {
		log.Fatal("TCP mode needs -id and -peers (or use -local N)")
	}
	peers := parsePeers(peersArg)
	n := len(peers)
	self := types.ReplicaID(id)
	listen, ok := peers[self]
	if !ok {
		log.Fatalf("replica %d not present in -peers", id)
	}

	sch, err := crypto.SchemeByName(schemeName)
	if err != nil {
		log.Fatal(err)
	}
	signers, verifier, err := sch.Committee(n, seed)
	if err != nil {
		log.Fatal(err)
	}
	tr, err := transport.NewTCPTransport(transport.TCPConfig{
		Self: self, Listen: listen, Peers: peers,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer tr.Close()

	reg := contract.NewRegistry()
	workload.RegisterSmallBank(reg)
	var st storage.Backend
	if dataDir != "" {
		d, derr := storage.OpenDurable(storage.DurableOptions{Dir: dataDir})
		if derr != nil {
			log.Fatal(derr)
		}
		defer d.Close()
		st = d
		if d.Seq() > 0 {
			log.Printf("recovered %d keys at commit seq %d from %s (WAL replay)", d.Len(), d.Seq(), dataDir)
		}
	} else {
		st = storage.New()
	}
	if st.Seq() == 0 {
		workload.InitAccounts(st, accounts, 1_000_000, 1_000_000)
	}

	nd, err := node.New(node.Config{
		ID: self, N: n, Transport: tr,
		Signer: signers[id], Verifier: verifier,
		Registry: reg, Store: st,
		Mode: m, BatchSize: batch, K: k, KPrime: kprime,
	})
	if err != nil {
		log.Fatal(err)
	}
	nd.Start()
	defer nd.Stop()
	startDebugServer(debugAddr, []*node.Node{nd}, nil)
	log.Printf("replica %d/%d listening on %s (mode %s, shard rotation k=%d k'=%d)",
		id, n, listen, m, k, kprime)

	// Periodic status until interrupted.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	tick := time.NewTicker(5 * time.Second)
	defer tick.Stop()
	for {
		select {
		case <-tick.C:
			s := nd.Stats()
			log.Printf("epoch=%d round=%d committed=%d (single=%d cross=%d) reconfigs=%d",
				s.Epoch, s.Round, s.CommittedTxs, s.CommittedSingle, s.CommittedCross, s.Reconfigurations)
		case <-sig:
			log.Printf("shutting down")
			return
		}
	}
}
