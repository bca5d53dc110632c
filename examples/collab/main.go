// Real-socket collaboration demo: an IQ-RUDP server and client exchanging
// attribute-tagged messages over loopback UDP — the same protocol machine
// the simulator runs, driven by goroutines and a real network stack.
//
//	go run ./examples/collab
package main

import (
	"fmt"
	"log"
	"time"

	iqrudp "github.com/cercs/iqrudp"
)

func main() {
	// The "collaboration hub": tolerates losing 25% of unmarked updates.
	ln, err := iqrudp.Listen("127.0.0.1:0", iqrudp.ServerConfig(0.25))
	if err != nil {
		log.Fatal(err)
	}
	defer ln.Close()
	fmt.Println("hub listening on", ln.Addr())

	done := make(chan struct{})
	go hub(ln, done)

	// A collaborator connects and streams simulation state.
	conn, err := iqrudp.Dial(ln.Addr().String(), iqrudp.DefaultConfig())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("collaborator connected from", conn.LocalAddr())

	for step := 0; step < 20; step++ {
		attrs := iqrudp.NewAttrList(
			iqrudp.Attr{Name: "STEP", Value: iqrudp.Int(int64(step))},
			iqrudp.Attr{Name: "FIELD", Value: iqrudp.String("pressure")},
		)
		// Checkpoint steps are critical; intermediate updates are droppable.
		marked := step%5 == 0
		payload := fmt.Sprintf("state@%02d", step)
		if err := conn.SendMsg([]byte(payload), marked, attrs); err != nil {
			log.Fatal(err)
		}
	}

	// Read the hub's acknowledgement message.
	msg, err := conn.Recv(5 * time.Second)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("hub replied: %s\n", msg.Data)

	mt := conn.Metrics()
	fmt.Printf("client transport: srtt=%v sent=%d acked=%d\n",
		mt.SRTT.Round(time.Microsecond), mt.SentPackets, mt.AckedPackets)

	conn.Close()
	<-done
}

// hub receives one collaborator's updates and replies with a summary.
func hub(ln *iqrudp.Server, done chan<- struct{}) {
	defer close(done)
	conn, err := ln.Accept(10 * time.Second)
	if err != nil {
		log.Print("accept:", err)
		return
	}
	got, checkpoints := 0, 0
	for got < 20 {
		msg, err := conn.Recv(5 * time.Second)
		if err != nil {
			break
		}
		got++
		step := int64(-1)
		if msg.Attrs != nil {
			step = msg.Attrs.IntOr("STEP", -1)
		}
		if msg.Marked {
			checkpoints++
			fmt.Printf("hub: checkpoint step=%d (%q)\n", step, msg.Data)
		}
	}
	conn.Send([]byte(fmt.Sprintf("received %d updates, %d checkpoints", got, checkpoints)), true)
	// Give the reply time to drain before the process exits.
	time.Sleep(200 * time.Millisecond)
}
