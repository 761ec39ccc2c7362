package sim

// WaitGroup counts outstanding simulated activities and fires a callback
// when the count drops to zero, mirroring sync.WaitGroup for virtual time.
type WaitGroup struct {
	n    int
	fns  []func()
	fire bool
}

// Add increments the outstanding count by delta.
func (wg *WaitGroup) Add(delta int) {
	wg.n += delta
	if wg.n < 0 {
		panic("sim: negative WaitGroup counter")
	}
	wg.maybeFire()
}

// Done decrements the outstanding count by one.
func (wg *WaitGroup) Done() { wg.Add(-1) }

// OnZero registers fn to run when the counter reaches zero. If already at
// zero, fn runs immediately.
func (wg *WaitGroup) OnZero(fn func()) {
	wg.fns = append(wg.fns, fn)
	wg.maybeFire()
}

func (wg *WaitGroup) maybeFire() {
	if wg.n != 0 || wg.fire {
		return
	}
	wg.fire = true
	fns := wg.fns
	wg.fns = nil
	for _, fn := range fns {
		fn()
	}
	wg.fire = false
}
