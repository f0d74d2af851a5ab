// The formulating users of the gui-session workload. Their pacing comes
// from the repository's participant model (internal/usersim), not from
// chosen request rates: a keystroke is one queryform.Session manual step,
// and it is due after as many of the user's per-action times as the step
// took actions.
package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"
	"time"

	catapult "repro"
	"repro/internal/queryform"
	"repro/internal/usersim"
)

// keystrokeInput is one partial query a user posts to /v1/suggest.
type keystrokeInput struct {
	body   []byte
	target int
}

// typist is one simulated user formulating targets one after another.
type typist struct {
	model  *usersim.User
	sess   *queryform.Session
	target int
	// perAction is this user's time per manual action on the current
	// target: usersim's query formulation time for building the target by
	// hand (no panel), divided by the actions that takes.
	perAction time.Duration
	clock     time.Duration // when the user's latest action ended
}

// population is the set of users typing concurrently. It is a pure
// function of its targets, size and seed.
type population struct {
	targets [][]byte // each target in transaction format: a search body
	graphs  []*catapult.Graph
	rng     *rand.Rand
	cycle   []int // targets are drawn in seeded rounds, each once a round
	users   []*typist

	mu   sync.Mutex
	next int // the user nextKeystroke serves
}

func newPopulation(targets []*catapult.Graph, users int, seed int64) (*population, error) {
	p := &population{graphs: targets, rng: rand.New(rand.NewSource(seed))}
	for _, t := range targets {
		body, err := encodeGraph("target", t)
		if err != nil {
			return nil, err
		}
		p.targets = append(p.targets, body)
	}
	for i := 0; i < users; i++ {
		u := &typist{model: usersim.NewUser(seed*1000 + int64(i))}
		if err := p.begin(u); err != nil {
			return nil, err
		}
		// Users start at a random step of their first target and a random
		// point of their current action, so the window opens on a steady
		// state rather than on everyone starting at once.
		for k := p.rng.Intn(targets[u.target].NumEdges()); k > 0 && u.sess.ManualStep(); k-- {
		}
		u.clock = -time.Duration(p.rng.Float64() * float64(2*u.perAction))
		p.users = append(p.users, u)
	}
	return p, nil
}

// begin starts u on the next drawn target.
func (p *population) begin(u *typist) error {
	if len(p.cycle) == 0 {
		p.cycle = p.rng.Perm(len(p.graphs))
	}
	u.target, p.cycle = p.cycle[0], p.cycle[1:]
	t := p.graphs[u.target]
	sess, err := queryform.NewSession(t)
	if err != nil {
		return err
	}
	manual := u.model.Formulate(t, nil, false)
	if manual.Steps <= 0 {
		return fmt.Errorf("target %d takes no steps", u.target)
	}
	u.sess = sess
	u.perAction = time.Duration(manual.Seconds / float64(manual.Steps) * float64(time.Second))
	return nil
}

// step advances u by one manual step, starting its next target when the
// current one is complete. It returns the posted partial and the actions
// the step took; done reports that the target was complete, in which case
// u has run its query (one action) and opened the next target.
func (p *population) step(u *typist) (in keystrokeInput, actions int, done bool, err error) {
	before := u.sess.Steps()
	if !u.sess.ManualStep() {
		if err := p.begin(u); err != nil {
			return in, 0, false, err
		}
		return in, 1, true, nil
	}
	body, err := encodeGraph("partial", u.sess.Partial())
	return keystrokeInput{body: body, target: u.target}, u.sess.Steps() - before, false, err
}

// play runs every user through window and appends its requests to evs:
// a keystroke after each manual step; on completing a target, a search for
// it and a panel read as the next target opens. Requests due before 0 are
// the steady state the window opens on and are not sent.
func (p *population) play(window time.Duration, evs []event) ([]event, error) {
	for _, u := range p.users {
		for {
			target := u.target
			in, actions, done, err := p.step(u)
			if err != nil {
				return nil, err
			}
			u.clock += time.Duration(actions) * u.perAction
			if u.clock >= window {
				break
			}
			if u.clock < 0 {
				continue
			}
			if !done {
				evs = append(evs, event{Due: u.clock, Kind: opKeystroke, Body: in.body, Target: in.target})
				continue
			}
			evs = append(evs,
				event{Due: u.clock, Kind: opSearch, Body: p.targets[target], Target: target},
				event{Due: u.clock, Kind: opPanel})
		}
	}
	return evs, nil
}

// nextKeystroke continues the users round-robin without pacing, for the
// saturation phase: every call yields a partial no earlier call posted.
func (p *population) nextKeystroke() (keystrokeInput, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	u := p.users[p.next%len(p.users)]
	p.next++
	for {
		in, _, done, err := p.step(u)
		if err != nil || !done {
			return in, err
		}
	}
}

func encodeGraph(name string, g *catapult.Graph) ([]byte, error) {
	var buf bytes.Buffer
	err := catapult.WriteDB(&buf, catapult.NewDB(name, []*catapult.Graph{g}))
	return buf.Bytes(), err
}
