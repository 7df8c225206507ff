//go:build race

package chaos

// timeScale stretches the stall scenario's deadlines under the race
// detector, where a tiny-engine wave runs about thirty times slower.
const timeScale = 30
