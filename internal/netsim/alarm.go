package netsim

// Alarm is a re-armable timer with a callback bound once, at creation:
// the shape of a retransmission timer, which is set for every packet
// sent and almost never fires. Set and Stop are O(1) in that common
// case. The alarm keeps one entry in the simulation's alarm heap whose
// key is only a lower bound on the alarm's real (at, seq): pushing the
// deadline later, or stopping the alarm, leaves the entry where it is,
// and the heap is corrected when the entry surfaces — once per timeout
// period instead of once per packet. Only re-arming *earlier* than the
// queued key moves the entry at once.
//
// Set takes the alarm's tie-break from the simulation's one counter
// (Sim.Draw). Drawn as Set is called, the alarm fires at exactly the
// position in the total order that Cancel followed by After would have
// given it; drawn earlier, where a timer armed then would have fired —
// so one alarm can stand for many timers, set under the soonest's draw.
type Alarm struct {
	s  *Sim
	id int32
}

// alarmState is one alarm's real deadline.
type alarmState struct {
	fn      func()
	at      Time
	seq     uint64
	heapIdx int32 // index of the alarm's entry in alarmHeap, or noSlot
	armed   bool
}

// alarmEntry is an alarm's place in the alarm heap. Its key never
// exceeds the alarm's real key while the alarm is armed.
type alarmEntry struct {
	at  Time
	seq uint64
	id  int32
}

// NewAlarm returns a stopped alarm that runs fn when it fires.
func (s *Sim) NewAlarm(fn func()) Alarm {
	s.alarms = append(s.alarms, alarmState{fn: fn, heapIdx: noSlot})
	return Alarm{s: s, id: int32(len(s.alarms) - 1)}
}

// Set arms the alarm for absolute virtual time at under tie-break seq,
// replacing any earlier deadline. Setting it in the past panics.
//
//switchml:hotpath
func (a Alarm) Set(at Time, seq uint64) {
	s := a.s
	s.checkFuture(at)
	st := &s.alarms[a.id]
	st.at, st.seq, st.armed = at, seq, true
	if st.heapIdx == noSlot {
		//switchml:allow hotpath -- alarm-heap growth: one entry per alarm at most, so the slice stops growing once every alarm has been set
		s.alarmHeap = append(s.alarmHeap, alarmEntry{})
		s.alarmUp(len(s.alarmHeap)-1, alarmEntry{at: at, seq: seq, id: a.id})
		return
	}
	if e := &s.alarmHeap[st.heapIdx]; before(at, seq, e.at, e.seq) {
		s.alarmUp(int(st.heapIdx), alarmEntry{at: at, seq: seq, id: a.id})
	}
}

// Draw takes the next tie-break from the simulation's counter, as
// scheduling an event now would, for Alarm.Set.
func (s *Sim) Draw() uint64 { return s.nextSeq() }

// Stop disarms the alarm and reports whether it was armed.
//
//switchml:hotpath
func (a Alarm) Stop() bool {
	st := &a.s.alarms[a.id]
	was := st.armed
	st.armed = false
	return was
}

func (s *Sim) alarmPlace(i int, e alarmEntry) {
	s.alarmHeap[i] = e
	s.alarms[e.id].heapIdx = int32(i)
}

func (s *Sim) alarmUp(i int, e alarmEntry) {
	for i > 0 {
		parent := (i - 1) / 2
		p := s.alarmHeap[parent]
		if !before(e.at, e.seq, p.at, p.seq) {
			break
		}
		s.alarmPlace(i, p)
		i = parent
	}
	s.alarmPlace(i, e)
}

func (s *Sim) alarmDown(i int, e alarmEntry) {
	n := len(s.alarmHeap)
	for {
		child := 2*i + 1
		if child >= n {
			break
		}
		c := s.alarmHeap[child]
		if right := child + 1; right < n {
			if r := s.alarmHeap[right]; before(r.at, r.seq, c.at, c.seq) {
				child, c = right, r
			}
		}
		if !before(c.at, c.seq, e.at, e.seq) {
			break
		}
		s.alarmPlace(i, c)
		i = child
	}
	s.alarmPlace(i, e)
}

// popAlarm removes the alarm heap's head entry.
func (s *Sim) popAlarm() {
	s.alarms[s.alarmHeap[0].id].heapIdx = noSlot
	n := len(s.alarmHeap) - 1
	last := s.alarmHeap[n]
	s.alarmHeap = s.alarmHeap[:n]
	if n > 0 {
		s.alarmDown(0, last)
	}
}

// settleAlarmHead brings the alarm heap's head entry up to date with
// its alarm: it reports true if the entry is the alarm's real key,
// and otherwise discards it (alarm stopped) or re-keys it (deadline
// pushed later) so the caller can look at the new head.
func (s *Sim) settleAlarmHead() bool {
	e := s.alarmHeap[0]
	st := &s.alarms[e.id]
	switch {
	case !st.armed:
		s.popAlarm()
		return false
	case st.at != e.at || st.seq != e.seq:
		s.alarmDown(0, alarmEntry{at: st.at, seq: st.seq, id: e.id})
		return false
	}
	return true
}

// fireAlarm runs the (settled) head alarm.
func (s *Sim) fireAlarm() {
	st := &s.alarms[s.alarmHeap[0].id]
	s.popAlarm()
	st.armed = false
	s.now = st.at
	st.fn()
}
