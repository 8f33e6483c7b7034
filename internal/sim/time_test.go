package sim

import "testing"

func TestTimeString(t *testing.T) {
	cases := []struct {
		in   Time
		want string
	}{
		{500 * Nanosecond, "500ns"},
		{1500 * Nanosecond, "1.500us"},
		{2500 * Microsecond, "2.500ms"},
		{Second + 500*Millisecond, "1.500000s"},
		{-500 * Nanosecond, "-500ns"},
	}
	for _, c := range cases {
		if got := c.in.String(); got != c.want {
			t.Errorf("%d.String() = %q, want %q", int64(c.in), got, c.want)
		}
	}
}

func TestTimeConversions(t *testing.T) {
	if FromSeconds(1.5) != Second+500*Millisecond {
		t.Errorf("FromSeconds(1.5) = %v", FromSeconds(1.5))
	}
	if got := (250 * Millisecond).Seconds(); got != 0.25 {
		t.Errorf("Seconds() = %v, want 0.25", got)
	}
	if got := (3 * Microsecond).Micros(); got != 3 {
		t.Errorf("Micros() = %v, want 3", got)
	}
}
