//go:build !race

package chaos

// timeScale stretches the stall scenario's deadlines under the race
// detector.
const timeScale = 1
